// Command perfbench is the repository's benchmark. It deploys a live DIET
// platform over loopback TCP (1 MA, 2 LAs, 4 SeDs, an HTTP gateway and a
// staging data store), drives it from closed-loop clients, replays
// campaigns in the simulator, checks every output, and prints one JSON
// result as the last line of standard output:
//
//	bash perfbench/run.sh --workload concurrent --seed 1 --seconds 20 --trace 0
//
// A workload is a load shape: serial drives the platform from one
// closed-loop client, concurrent from two. Every run executes the same four
// phases — small calls, bulk transfers, zoom campaigns and simulator
// replays — so it reports every end-to-end metric. --trace 1 records
// spans, measures tracing overhead on the small calls, probes each layer
// alone and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads are the load shapes a run can take, each with its closed-loop
// client count, which is also the parallelism of a campaign.
var workloads = []struct {
	name    string
	clients int
}{{"serial", 1}, {"concurrent", 2}}

// rounds is how many slices every phase is cut into. A run executes the
// phases round by round, so each phase's measurement spreads over the
// whole run; a metric is the median of its per-round values, or a tail
// taken by blockTail, and a burst of load from outside the benchmark
// spoils at most a slice of it. Set-up is timed once per round too.
const rounds = 12

type runConfig struct {
	workload string
	clients  int // closed-loop clients, from the workload
	seed     int64
	window   time.Duration // split between the two call phases
	trace    bool
	out      string // directory for spans and scratch files
}

// metricSet is an ordered list of named metrics.
type metricSet []namedMetric

type namedMetric struct {
	name  string
	unit  string
	value float64
}

func (m *metricSet) add(name, unit string, v float64) {
	*m = append(*m, namedMetric{name, unit, v})
}

// result is the benchmark's verdict for one run. A traced run reports its
// per-layer metrics; its end-to-end figures carry tracing cost and are
// kept only for the summary.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	traced    bool
	e2e       metricSet
	perLayer  metricSet
}

// count adds a phase's operations to the run's. An operation that failed
// in any way produced no checked output, so one failure makes the whole
// run incorrect.
func (r *result) count(t *tally) {
	r.attempted += t.attempted.Load()
	r.failed += t.failed()
	if t.failed() > 0 {
		r.correct = false
	}
}

func (r *result) reported() metricSet {
	if r.traced {
		return r.perLayer
	}
	return r.e2e
}

func (r *result) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.reported()))
	for _, m := range r.reported() {
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "load shape: serial (1 client) or concurrent (2 clients)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&seconds, "seconds", 20, "measuring window of the small and bulk calls together, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for spans and scratch files")
	flag.Parse()
	for _, w := range workloads {
		if w.name == cfg.workload {
			cfg.clients = w.clients
		}
	}
	if cfg.clients == 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serial|concurrent, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phase is one of the four measurements of a run, made a round at a time.
type phase interface {
	// round measures for at least length and the round's minimum sample
	// count; tr is nil in an untraced run.
	round(r int, length time.Duration, tr *tracer) error
	counts() *tally
	// metrics summarises all rounds.
	metrics() (e2e, perLayer metricSet, err error)
}

// phases are a run's four phases, bound to a platform and its inputs.
type phases struct {
	small    *smallPhase
	bulk     *bulkPhase
	campaign *campaignPhase
	sim      *simPhase
}

func newPhases(pl *platform, bulkIn *bulkInputs, seed int64, work string) *phases {
	return &phases{
		small:    &smallPhase{pl: pl, seed: seed},
		bulk:     &bulkPhase{pl: pl, in: bulkIn, seed: seed},
		campaign: &campaignPhase{pl: pl, workDir: work},
		sim:      &simPhase{seed: seed},
	}
}

// namedPhase is a phase with the name the summary prints.
type namedPhase struct {
	name string
	phase
}

// inOrder lists the phases in the order a round runs them.
func (p *phases) inOrder() []namedPhase {
	return []namedPhase{
		{"small-calls", p.small},
		{"bulk-transfer", p.bulk},
		{"zoom-campaign", p.campaign},
		{"sim-replay", p.sim},
	}
}

// run makes the inputs, brings the platform up, runs every phase round by
// round and, when tracing, probes the layers. A human-readable summary goes
// to summary; the returned result is printed by the caller.
func run(cfg runConfig, summary io.Writer) (*result, error) {
	work := filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	surveys, err := newSurveyInputs(cfg.seed, filepath.Join(work, "reference"))
	if err != nil {
		return nil, err
	}
	bulkIn, err := newBulkInputs(cfg.seed)
	if err != nil {
		return nil, err
	}

	var setups []float64
	setUp := func() (*platform, error) {
		t0 := time.Now()
		pl, err := newPlatform(surveys, benchServices(), cfg.clients, work)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return pl, nil
	}
	pl, err := setUp()
	if err != nil {
		return nil, err
	}
	defer pl.close()
	ph := newPhases(pl, bulkIn, cfg.seed, work)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The call phases share the window; the campaign and simulator phases
	// run at a fixed size.
	lengths := map[phase]time.Duration{ph.small: cfg.window / 2 / rounds, ph.bulk: cfg.window / 2 / rounds}
	var gcCycles uint32
	var gcPauseNS uint64
	busy := make(map[string]time.Duration)
	for r := 0; r < rounds; r++ {
		for _, p := range ph.inOrder() {
			// The Go collector figures come from the bulk transfers, where
			// the bytes are.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			if err := p.round(r, lengths[p.phase], tr); err != nil {
				return nil, fmt.Errorf("%s, round %d: %w", p.name, r, err)
			}
			busy[p.name] += time.Since(t0)
			if p.phase == ph.bulk {
				runtime.ReadMemStats(&after)
				gcCycles += after.NumGC - before.NumGC
				gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
			}
		}
		extra, err := setUp()
		if err != nil {
			return nil, err
		}
		extra.close()
	}

	res := &result{correct: true, traced: cfg.trace}
	res.e2e.add("setup_s", "s", median(setups))
	for _, p := range ph.inOrder() {
		res.count(p.counts())
		e2e, perLayer, err := p.metrics()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		res.e2e = append(res.e2e, e2e...)
		res.perLayer = append(res.perLayer, perLayer...)
		t := p.counts()
		fmt.Fprintf(summary, "phase %-13s %6d ops, %d errored, %d wrong, %.1f s\n",
			p.name, t.attempted.Load(), t.errored.Load(), t.wrong.Load(), busy[p.name].Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.e2e.add("peak_rss_mb", "MiB", rss)

	if cfg.trace {
		untraced, traced := percentile(ph.small.byTrace[0], 50), percentile(ph.small.byTrace[1], 50)
		res.perLayer.add("trace.overhead_ratio", "ratio", traced/untraced)
		res.perLayer.add("go.gc_cycles", "count", float64(gcCycles))
		res.perLayer.add("go.gc_pause_ms", "ms", float64(gcPauseNS)/1e6)
		probes, err := probeLayers(pl, work, tr)
		if err != nil {
			return nil, err
		}
		res.perLayer = append(res.perLayer, probes...)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(summary, "%d spans written to %s\n", tr.count(), path)
		fmt.Fprintf(summary, "tracing overhead: direct small-call p50 %.4g ms untraced, %.4g ms traced\n", untraced, traced)
		fmt.Fprintln(summary, "end-to-end figures of this traced run (not comparable to an untraced run):")
		printMetrics(summary, res.e2e)
	}
	printMetrics(summary, res.reported())
	return res, nil
}

func printMetrics(w io.Writer, ms metricSet) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
}
