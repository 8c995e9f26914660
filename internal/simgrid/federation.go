package simgrid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/scheduler"
)

// This file models the multi-MA federation in virtual time: the submission
// plane of a federated deployment, where a gateway sticky-routes each
// service onto one Master Agent (scheduler.StickyRoute, the gateway's own
// routing), MAs answer the finding phase serially (the ORB-overhead cost the
// paper's Figure 6 calls "finding time"), and a request for a service whose
// SeDs live under a different MA is peer-forwarded — consuming a miss probe
// at every peer and a full finding at the service's home MA, plus a forward
// round trip. The federation
// ablation (A12) drives it: saturation throughput and p99 submit latency,
// one MA versus N federated MAs, under the same open-loop arrival stream.

// FederationConfig describes one federated submission-plane run.
type FederationConfig struct {
	// MAs is the federation width (1 = the single-MA baseline).
	MAs int
	// ArrivalRateHz is the open-loop arrival rate of the stream, requests
	// per virtual second (default 100). Pick it between the single-MA and
	// federated capacities to see the single MA saturate while the
	// federation keeps up.
	ArrivalRateHz float64
}

// The fixed A12 stream: federationRequests submissions spread over
// federationServices services. One MA serialises federationSubmitCostMS
// per finding phase — collect fan-out, ranking, resolve; the ~30 ms ORB
// overhead of the paper's finding-time measurements. A peer whose subtree
// holds nothing pays the cheaper federationMissCostMS probe, and a forward
// adds federationForwardRTTMS of wire round trip. Every
// federationForeignEvery-th service (a quarter of them) has its SeDs under
// a different MA than the gateway's sticky route — deployments that predate
// the federation layout, the requests that exercise peer forwarding.
const (
	federationServices     = 32
	federationRequests     = 4000
	federationSubmitCostMS = 30
	federationMissCostMS   = federationSubmitCostMS / 3
	federationForwardRTTMS = 10
	federationForeignEvery = 4
)

func (cfg *FederationConfig) defaults() error {
	if cfg.MAs <= 0 {
		return fmt.Errorf("simgrid: federation needs at least one MA")
	}
	if cfg.ArrivalRateHz <= 0 {
		cfg.ArrivalRateHz = 100
	}
	return nil
}

// FederationRequestRecord is one submission's life in the federated plane.
type FederationRequestRecord struct {
	Service   string
	ArriveS   float64
	DoneS     float64
	Forwarded bool
}

// LatencyS is the submit latency: arrival at the gateway to ranked reply.
func (r FederationRequestRecord) LatencyS() float64 { return r.DoneS - r.ArriveS }

// FederationResult aggregates one federated run.
type FederationResult struct {
	Config   FederationConfig
	Requests []FederationRequestRecord
	Forwards int
	TotalS   float64 // last reply − first arrival
}

// ThroughputPerSec is the saturation throughput: completed findings per
// virtual second over the span of the run.
func (r *FederationResult) ThroughputPerSec() float64 {
	if r.TotalS <= 0 {
		return 0
	}
	return float64(len(r.Requests)) / r.TotalS
}

// P99LatencyS is the 99th-percentile submit latency.
func (r *FederationResult) P99LatencyS() float64 {
	return r.latencyQuantile(0.99)
}

// MeanLatencyS is the mean submit latency.
func (r *FederationResult) MeanLatencyS() float64 {
	if len(r.Requests) == 0 {
		return 0
	}
	sum := 0.0
	for _, req := range r.Requests {
		sum += req.LatencyS()
	}
	return sum / float64(len(r.Requests))
}

func (r *FederationResult) latencyQuantile(q float64) float64 {
	if len(r.Requests) == 0 {
		return 0
	}
	lat := make([]float64, len(r.Requests))
	for i, req := range r.Requests {
		lat[i] = req.LatencyS()
	}
	sort.Float64s(lat)
	idx := int(math.Ceil(q*float64(len(lat)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

// maServer is one MA's serial submission processor: a FIFO of work items
// drained one at a time on the virtual clock.
type maServer struct {
	sim   *Sim
	queue []func(startS float64)
	busy  bool
	costs []float64
}

func (m *maServer) enqueue(costS float64, done func(startS float64)) {
	m.queue = append(m.queue, done)
	m.costs = append(m.costs, costS)
	m.drain()
}

func (m *maServer) drain() {
	if m.busy || len(m.queue) == 0 {
		return
	}
	m.busy = true
	fn, cost := m.queue[0], m.costs[0]
	m.queue, m.costs = m.queue[1:], m.costs[1:]
	start := m.sim.Now()
	_ = m.sim.After(cost, func() {
		m.busy = false
		fn(start)
		m.drain()
	})
}

// RunFederation replays an open-loop submission stream against a federated
// (or single) MA plane and reports per-request records.
func RunFederation(cfg FederationConfig) (*FederationResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	sim := NewSim()
	servers := make([]*maServer, cfg.MAs)
	for i := range servers {
		servers[i] = &maServer{sim: sim}
	}

	// Service placement: sticky routing and SeD homes agree by construction
	// (both hash the name), except every federationForeignEvery-th service,
	// whose hierarchy is displaced one MA over — those submissions must
	// forward.
	homeOf := make([]int, federationServices)
	names := make([]string, federationServices)
	for s := range names {
		names[s] = fmt.Sprintf("svc%03d", s)
		homeOf[s] = scheduler.StickyRoute(names[s], cfg.MAs)
		if cfg.MAs > 1 && s%federationForeignEvery == 0 {
			homeOf[s] = (homeOf[s] + 1) % cfg.MAs
		}
	}

	res := &FederationResult{Config: cfg, Requests: make([]FederationRequestRecord, federationRequests)}
	const (
		submitS = federationSubmitCostMS / 1000.0
		missS   = federationMissCostMS / 1000.0
		rttS    = federationForwardRTTMS / 1000.0
	)
	for i := range res.Requests {
		svc := i % federationServices
		arrive := float64(i) / cfg.ArrivalRateHz
		route, home := scheduler.StickyRoute(names[svc], cfg.MAs), homeOf[svc]
		res.Requests[i] = FederationRequestRecord{Service: names[svc], ArriveS: arrive}
		finish := func(float64) {
			res.Requests[i].DoneS = sim.Now()
		}
		_ = sim.At(arrive, func() {
			if route == home {
				servers[route].enqueue(submitS, finish)
				return
			}
			// Local miss at the sticky-routed MA: its collect comes up empty
			// (a miss probe), then the forward broadcast — every other peer
			// pays a miss probe, the home MA a full finding, and the reply
			// crosses the wire back.
			res.Requests[i].Forwarded = true
			res.Forwards++
			servers[route].enqueue(missS, func(float64) {
				for p := range servers {
					if p == route || p == home {
						continue
					}
					servers[p].enqueue(missS, func(float64) {})
				}
				_ = sim.After(rttS/2, func() {
					servers[home].enqueue(submitS, func(float64) {
						_ = sim.After(rttS/2, func() { finish(0) })
					})
				})
			})
		})
	}
	sim.Run()

	first, last := math.Inf(1), 0.0
	for _, r := range res.Requests {
		if r.ArriveS < first {
			first = r.ArriveS
		}
		if r.DoneS > last {
			last = r.DoneS
		}
	}
	res.TotalS = last - first
	return res, nil
}
