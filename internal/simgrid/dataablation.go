package simgrid

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/cori"
	"repro/internal/platform"
)

// This file runs the data ablation (A13): a data-heavy parameter sweep with
// persistent-data reuse — every sweep point re-reads one of a handful of
// multi-GB snapshots first published on a storage node — executed in
// virtual time over per-pair virtual bandwidths, comparing a data-blind
// scheduler (rank on compute + wait only, exactly the pre-A13 formula) against
// the data-aware one the live platform runs: predicted input-transfer seconds
// folded into the score, priced from a cori.TransferMonitor trained by the
// sweep's own measured transfers. Both arms cache fetched snapshots locally
// (persistent data lives where it lands), so the blind arm's only handicap is
// not *pricing* the moves it causes — it spreads each snapshot's points across
// the platform and pays the WAN again and again, while the aware arm
// concentrates them where the bytes already are.

// DataAblationConfig parameterises the A13 comparison. The zero value runs
// the default data-heavy sweep (see withDefaults) — an empty config is never
// inert.
type DataAblationConfig struct {
	// Datasets is how many distinct snapshots the sweep reads (default 6);
	// DatasetMB is each snapshot's size (default 3000 — GRAFIC-scale).
	Datasets  int
	DatasetMB float64
	// Seed shuffles the submission order of the sweep points (default 7).
	Seed int64
}

// withDefaults fills the zero fields with the default data-heavy sweep.
func (c DataAblationConfig) withDefaults() DataAblationConfig {
	if c.Datasets < 1 {
		c.Datasets = 6
	}
	if c.DatasetMB <= 0 {
		c.DatasetMB = 3000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// The fixed A13 scenario. Every snapshot starts on dataStorage and feeds
// dataPoints sweep points of dataWorkGFlops each. At most dataMaxInFlight
// points run at once, so placement decisions interleave with completions
// and the transfer monitor trains mid-sweep. The aware arm prices a pair
// whose transfer model is still untrusted at dataFallbackMBps — the live
// SeD's DataFallbackMBps, still optimistic about the 10 MB/s WAN links.
const (
	dataStorage      = "nfs"
	dataPoints       = 8
	dataWorkGFlops   = 2000
	dataFallbackMBps = 50
	dataMaxInFlight  = 4
)

// dataServers is the A13 compute platform: four SeDs of mixed power (GFlops).
var dataServers = []struct {
	name  string
	power float64
}{{"Lyon1", 70}, {"Lyon2", 60}, {"Nancy1", 50}, {"Sophia1", 40}}

// dataLinkMBps is each link's virtual bandwidth, keyed by cori.PairKey:
// Nancy and Sophia sit behind a 10 MB/s WAN from the storage node. Links
// not listed run at 100 MB/s.
var dataLinkMBps = map[string]float64{
	cori.PairKey(dataStorage, "Lyon1"):   100,
	cori.PairKey(dataStorage, "Lyon2"):   100,
	cori.PairKey(dataStorage, "Nancy1"):  10,
	cori.PairKey(dataStorage, "Sophia1"): 10,
	cori.PairKey("Lyon1", "Nancy1"):      20,
	cori.PairKey("Lyon1", "Sophia1"):     20,
	cori.PairKey("Lyon2", "Nancy1"):      20,
	cori.PairKey("Lyon2", "Sophia1"):     20,
	cori.PairKey("Nancy1", "Sophia1"):    15,
}

// dataBandwidth returns the virtual MB/s of the a↔b link.
func dataBandwidth(a, b string) float64 {
	if bw, ok := dataLinkMBps[cori.PairKey(a, b)]; ok {
		return bw
	}
	return 100
}

// DataArmResult is one scheduling arm's outcome over the sweep.
type DataArmResult struct {
	Strategy     string
	MakespanS    float64
	BytesMovedMB float64
	Transfers    int
	Solves       int
	// EventLog is the deterministic dispatch trace: one line per sweep point,
	// in dispatch order, with virtual timestamps.
	EventLog []string
}

// DataAblationResult compares the two arms on the same platform, workload,
// and submission order.
type DataAblationResult struct {
	Blind *DataArmResult // compute + wait only, pre-A13 ranking
	Aware *DataArmResult // + predicted input-transfer seconds
}

// MakespanGainPct is the sweep-makespan saving of data-aware over data-blind
// scheduling, in percent.
func (r *DataAblationResult) MakespanGainPct() float64 {
	return 100 * (r.Blind.MakespanS - r.Aware.MakespanS) / r.Blind.MakespanS
}

// BytesSavedPct is the reduction in bytes moved across the virtual links.
func (r *DataAblationResult) BytesSavedPct() float64 {
	return 100 * (r.Blind.BytesMovedMB - r.Aware.BytesMovedMB) / r.Blind.BytesMovedMB
}

// Print writes the A13 summary table.
func (r *DataAblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Data ablation (A13) — transfer-priced placement on a data-heavy sweep")
	row := func(a *DataArmResult) {
		fmt.Fprintf(w, "  %-12s makespan %-12s moved %7.0f MB in %3d transfers  (%d solves)\n",
			a.Strategy, Hours(a.MakespanS), a.BytesMovedMB, a.Transfers, a.Solves)
	}
	row(r.Blind)
	row(r.Aware)
	fmt.Fprintf(w, "  makespan gain  %.1f%%\n", r.MakespanGainPct())
	fmt.Fprintf(w, "  bytes saved    %.1f%%\n", r.BytesSavedPct())
}

// runDataArm executes the sweep under one ranking. Both arms share the
// workload, submission order, platform, and caching behaviour; aware
// additionally prices predicted input transfers into placement, from the
// monitor its own completed transfers train.
func runDataArm(cfg DataAblationConfig, aware bool) *DataArmResult {
	sim := NewSim()
	var monitor *cori.TransferMonitor
	if aware {
		monitor = cori.NewTransferMonitor(cori.Config{HalfLife: TrainingHalfLife, Now: virtualClock(sim)})
	}

	seds := make([]*sedState, len(dataServers))
	for i, s := range dataServers {
		seds[i] = &sedState{place: platform.SeDPlacement{Name: s.name}, truePower: s.power, advertised: s.power}
	}
	// holders[d] is the sorted set of nodes a replica of dataset d lives on;
	// every dataset starts on the storage node only, and a SeD holds one
	// once its pull completes (persistent data lives where it lands).
	holders := make([][]string, cfg.Datasets)
	for d := range holders {
		holders[d] = []string{dataStorage}
	}
	resident := func(d int, s *sedState) bool { return slices.Contains(holders[d], s.place.Name) }

	// The sweep: dataPoints points per snapshot, submission order
	// shuffled by the seed so neither arm sees datasets in convenient runs.
	type point struct{ dataset int }
	var queue []point
	for d := 0; d < cfg.Datasets; d++ {
		for p := 0; p < dataPoints; p++ {
			queue = append(queue, point{dataset: d})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	strategy := "data-blind"
	if aware {
		strategy = "data-aware"
	}
	res := &DataArmResult{Strategy: strategy}
	inflight, next := 0, 0

	var dispatch func()
	dispatch = func() {
		for inflight < dataMaxInFlight && next < len(queue) {
			job := queue[next]
			seq := next
			next++

			// Rank: predicted finish = wait + compute (+ transfer when
			// aware); ties go to the earlier server, like ServerID order.
			var sed *sedState
			best := 0.0
			now := sim.Now()
			for _, s := range seds {
				start := now
				if s.freeAt > start {
					start = s.freeAt
				}
				score := start + dataWorkGFlops/s.advertised
				if aware && !resident(job.dataset, s) {
					// The live SeD's input pricing: the cheapest pull from
					// any replica, trusted pair model else the fallback.
					score += monitor.PriceInput(holders[job.dataset], s.place.Name, cfg.DatasetMB, dataFallbackMBps)
				}
				if sed == nil || score < best {
					sed, best = s, score
				}
			}

			// Execute: pull the snapshot over the actual virtual link when
			// it is not resident (cheapest true source, name-ordered ties),
			// then compute. The blind arm pays the same pull — it just never
			// saw it coming.
			start := now
			if sed.freeAt > start {
				start = sed.freeAt
			}
			transfer, from := 0.0, ""
			if !resident(job.dataset, sed) {
				for _, h := range holders[job.dataset] {
					if t := cfg.DatasetMB / dataBandwidth(h, sed.place.Name); from == "" || t < transfer {
						transfer, from = t, h
					}
				}
				res.BytesMovedMB += cfg.DatasetMB
				res.Transfers++
			}
			end := start + transfer + dataWorkGFlops/sed.truePower
			sed.freeAt = end
			inflight++
			if from != "" {
				res.EventLog = append(res.EventLog, fmt.Sprintf(
					"t=%09.1f point=%03d ds=%d sed=%s pull=%s transfer=%.1fs end=%.1f",
					now, seq, job.dataset, sed.place.Name, from, transfer, end))
			} else {
				res.EventLog = append(res.EventLog, fmt.Sprintf(
					"t=%09.1f point=%03d ds=%d sed=%s local end=%.1f",
					now, seq, job.dataset, sed.place.Name, end))
			}

			sim.At(end, func() {
				if from != "" {
					if !resident(job.dataset, sed) {
						holders[job.dataset] = append(holders[job.dataset], sed.place.Name)
						sort.Strings(holders[job.dataset])
					}
					if monitor != nil {
						monitor.Observe(cori.TransferSample{
							From: from, To: sed.place.Name, SizeMB: cfg.DatasetMB,
							Duration: time.Duration(transfer * float64(time.Second)),
						})
					}
				}
				inflight--
				res.Solves++
				dispatch()
				if res.Solves == len(queue) {
					res.MakespanS = sim.Now()
				}
			})
		}
	}
	dispatch()
	sim.Run()
	return res
}

// RunDataAblation runs both arms of A13 on the same configuration.
func RunDataAblation(cfg DataAblationConfig) *DataAblationResult {
	cfg = cfg.withDefaults()
	return &DataAblationResult{
		Blind: runDataArm(cfg, false),
		Aware: runDataArm(cfg, true),
	}
}
