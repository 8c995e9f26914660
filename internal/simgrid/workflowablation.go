package simgrid

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/cori"
	"repro/internal/platform"
	"repro/internal/workflow"
)

// This file runs the workflow ablation (A11): zoom campaigns expressed as the
// paper's Figure 4 DAG, executed in virtual time over the PaperDeployment,
// comparing the naive engine — ready nodes launched in topo order, placed
// round-robin — against the forecast-critical-path engine the live
// workflow.DietRunner implements: every stage priced from the SeDs' CoRI
// models (advertised power until a model is trusted), ready nodes launched in
// decreasing forecast-weighted downstream-chain order, each placed on the SeD
// with the earliest predicted finish. On the CanonicalSkew miscalibration the
// measured models route the long RAMSES and HaloMaker stages off the degraded
// nodes; the static engine keeps feeding them.

// WorkflowAblationConfig parameterises the A11 comparison.
type WorkflowAblationConfig struct {
	// Campaigns is how many zoom campaigns run back-to-back per arm; the
	// monitors carry across campaigns, so the early ones are cold training
	// runs. The default is 5: per-service models blacklist one misadvertised
	// SeD per campaign for a serial stage, and CanonicalSkew's degraded trio
	// tops the advertised table, so the dominant ramses3d stage needs three
	// campaigns of exploration before its model set converges.
	Campaigns int
	// Levels and Snapshots shape each campaign's RamsesZoomDocument
	// (defaults 2 and 3 — the 15-node DAG).
	Levels, Snapshots int
	// MaxParallel caps concurrently in-flight nodes per campaign, mirroring
	// the live runner's cap (default 3).
	MaxParallel int
}

// withDefaults fills the zero fields.
func (c WorkflowAblationConfig) withDefaults() WorkflowAblationConfig {
	if c.Campaigns < 1 {
		c.Campaigns = 5
	}
	if c.Levels < 1 {
		c.Levels = 2
	}
	if c.Snapshots < 0 {
		c.Snapshots = 3
	}
	if c.Levels == 2 && c.Snapshots == 0 {
		c.Snapshots = 3
	}
	if c.MaxParallel < 1 {
		c.MaxParallel = 3
	}
	return c
}

// WorkflowArmResult is one engine's outcome over the campaign sequence.
type WorkflowArmResult struct {
	Strategy string
	// CampaignMakespanS is each campaign's makespan in order; the last one is
	// the trained figure the ablation compares.
	CampaignMakespanS []float64
	TotalS            float64 // all campaigns end-to-end
	// ForecastPriced counts node dispatches whose placement used a trusted
	// CoRI model (always 0 for the static engine).
	ForecastPriced int
}

// TrainedMakespanS is the last (fully trained) campaign's makespan.
func (r *WorkflowArmResult) TrainedMakespanS() float64 {
	return r.CampaignMakespanS[len(r.CampaignMakespanS)-1]
}

// WorkflowAblationResult compares the two engines on the honest platform and
// under CanonicalSkew.
type WorkflowAblationResult struct {
	TopoRR         *WorkflowArmResult // topo-order launch, round-robin placement
	ForecastCP     *WorkflowArmResult // critical-path launch, predicted-finish placement
	SkewTopoRR     *WorkflowArmResult
	SkewForecastCP *WorkflowArmResult
}

// GainPct is the trained-campaign makespan saving of forecast-critical-path
// over topo-round-robin on the honest platform, in percent.
func (r *WorkflowAblationResult) GainPct() float64 {
	a := r.TopoRR.TrainedMakespanS()
	return 100 * (a - r.ForecastCP.TrainedMakespanS()) / a
}

// SkewGainPct is the same saving on the CanonicalSkew platform — the value of
// pricing stages from measured models when the advertised powers lie.
func (r *WorkflowAblationResult) SkewGainPct() float64 {
	a := r.SkewTopoRR.TrainedMakespanS()
	return 100 * (a - r.SkewForecastCP.TrainedMakespanS()) / a
}

// Print writes the A11 summary table.
func (r *WorkflowAblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Workflow ablation (A11) — zoom campaigns as Figure 4 DAGs")
	row := func(label string, a *WorkflowArmResult) {
		var spans []string
		for _, m := range a.CampaignMakespanS {
			spans = append(spans, Hours(m))
		}
		fmt.Fprintf(w, "  %-28s trained %-12s total %-12s forecast-priced %d  [%s]\n",
			label, Hours(a.TrainedMakespanS()), Hours(a.TotalS), a.ForecastPriced, strings.Join(spans, ", "))
	}
	row("topo round-robin", r.TopoRR)
	row("forecast critical-path", r.ForecastCP)
	row("skew: topo round-robin", r.SkewTopoRR)
	row("skew: forecast critical-path", r.SkewForecastCP)
	fmt.Fprintf(w, "  gain (honest)  %.1f%%\n", r.GainPct())
	fmt.Fprintf(w, "  gain (skewed)  %.1f%%\n", r.SkewGainPct())
}

// runWorkflowArm executes cfg.Campaigns back-to-back campaigns of the zoom
// DAG under one engine, in a single virtual timeline, carrying the monitors
// from campaign to campaign.
func runWorkflowArm(cfg WorkflowAblationConfig, forecastCP bool, skew map[string]float64) (*WorkflowArmResult, error) {
	doc := workflow.RamsesZoomDocument(cfg.Levels, cfg.Snapshots)
	dag, err := workflow.FromDocument(doc)
	if err != nil {
		return nil, err
	}
	order, err := dag.TopoOrder()
	if err != nil {
		return nil, err
	}
	stageWork := workflow.RamsesStageWork()

	type wfNode struct {
		id, service string
		work        float64
		topoIdx     int
		deps        []string
	}
	nodes := make(map[string]*wfNode, len(order))
	dependents := make(map[string][]string, len(order))
	for i, id := range order {
		nodes[id] = &wfNode{id: id, topoIdx: i}
	}
	for _, def := range doc.Nodes {
		n := nodes[def.ID]
		n.service = def.Service
		n.work = stageWork[def.Service]
		if n.work <= 0 {
			return nil, fmt.Errorf("simgrid: no stage work for service %q", def.Service)
		}
		n.deps = strings.Fields(def.Depends)
		for _, dep := range n.deps {
			dependents[dep] = append(dependents[dep], def.ID)
		}
	}

	sim := NewSim()
	dep := platform.PaperDeployment()
	// Each SeD has capacity 1, a drain time, and — for the forecasting
	// engine — a CoRI monitor trained by completed stages.
	seds := make([]*sedState, len(dep.SeDs))
	for i, p := range dep.SeDs {
		truePower := p.PowerGFlops()
		if f, ok := skew[p.Name]; ok && f > 0 {
			truePower *= f
		}
		seds[i] = &sedState{place: p, truePower: truePower, advertised: p.PowerGFlops()}
		if forecastCP {
			seds[i].monitor = cori.NewMonitor(cori.Config{HalfLife: TrainingHalfLife, Now: virtualClock(sim)})
		}
	}

	strategy := "topo-rr"
	if forecastCP {
		strategy = "forecast-cp"
	}
	res := &WorkflowArmResult{Strategy: strategy}
	rr := 0 // round-robin cursor, persisting across campaigns like a stateless MA

	var runCampaign func(c int)
	runCampaign = func(c int) {
		campStart := sim.Now()
		// Price the campaign against the platform's current models: each
		// node's cheapest predicted duration anywhere feeds the downstream
		// chain weights — the simulator's twin of DietRunner's FindServers
		// pricing pass.
		var priorities map[string]float64
		if forecastCP {
			priorities, err = dag.CriticalPathSeconds(func(def workflow.NodeDef) float64 {
				best := math.Inf(1)
				for _, s := range seds {
					if p, _ := cori.PriceSolve(s.monitor, def.Service, stageWork[def.Service], s.advertised); p < best {
						best = p
					}
				}
				return best
			})
			if err != nil {
				return
			}
		}
		remain := make(map[string]int, len(order))
		for _, id := range order {
			remain[id] = len(nodes[id].deps)
		}
		var ready []string
		running, completed := 0, 0
		var dispatch func()
		launch := func(n *wfNode) {
			var sed *sedState
			if forecastCP {
				bestFinish := math.Inf(1)
				byModel := false
				now := sim.Now()
				for _, s := range seds {
					p, model := cori.PriceSolve(s.monitor, n.service, n.work, s.advertised)
					start := now
					if s.freeAt > start {
						start = s.freeAt
					}
					if finish := start + p; finish < bestFinish {
						bestFinish, sed, byModel = finish, s, model
					}
				}
				if byModel {
					res.ForecastPriced++
				}
			} else {
				sed = seds[rr%len(seds)]
				rr++
			}
			dispatchS := sim.Now()
			startS := dispatchS
			if sed.freeAt > startS {
				startS = sed.freeAt
			}
			endS := startS + n.work/sed.truePower
			sed.freeAt = endS
			running++
			sim.At(endS, func() {
				running--
				completed++
				if sed.monitor != nil {
					wait := startS - dispatchS
					if wait <= 0 {
						wait = 0.001
					}
					sed.monitor.Observe(cori.Sample{
						Service:    n.service,
						WorkGFlops: n.work,
						Duration:   time.Duration((endS - startS) * float64(time.Second)),
						Wait:       time.Duration(wait * float64(time.Second)),
					})
				}
				for _, did := range dependents[n.id] {
					remain[did]--
					if remain[did] == 0 {
						ready = append(ready, did)
					}
				}
				dispatch()
				if completed == len(order) {
					res.CampaignMakespanS = append(res.CampaignMakespanS, sim.Now()-campStart)
					if c+1 < cfg.Campaigns {
						runCampaign(c + 1)
					}
				}
			})
		}
		dispatch = func() {
			for running < cfg.MaxParallel && len(ready) > 0 {
				best := 0
				for i := 1; i < len(ready); i++ {
					a, b := nodes[ready[i]], nodes[ready[best]]
					if forecastCP {
						pa, pb := priorities[a.id], priorities[b.id]
						if pa > pb || (pa == pb && a.topoIdx < b.topoIdx) {
							best = i
						}
					} else if a.topoIdx < b.topoIdx {
						best = i
					}
				}
				n := nodes[ready[best]]
				ready = append(ready[:best], ready[best+1:]...)
				launch(n)
			}
		}
		for _, id := range order {
			if remain[id] == 0 {
				ready = append(ready, id)
			}
		}
		dispatch()
	}
	runCampaign(0)
	sim.Run()
	if err != nil {
		return nil, err
	}
	if got := len(res.CampaignMakespanS); got != cfg.Campaigns {
		return nil, fmt.Errorf("simgrid: workflow arm %s completed %d of %d campaigns", strategy, got, cfg.Campaigns)
	}
	res.TotalS = sim.Now()
	return res, nil
}

// RunWorkflowAblation runs all four arms of A11.
func RunWorkflowAblation(cfg WorkflowAblationConfig) (*WorkflowAblationResult, error) {
	cfg = cfg.withDefaults()
	var (
		out WorkflowAblationResult
		err error
	)
	if out.TopoRR, err = runWorkflowArm(cfg, false, nil); err != nil {
		return nil, err
	}
	if out.ForecastCP, err = runWorkflowArm(cfg, true, nil); err != nil {
		return nil, err
	}
	if out.SkewTopoRR, err = runWorkflowArm(cfg, false, CanonicalSkew); err != nil {
		return nil, err
	}
	if out.SkewForecastCP, err = runWorkflowArm(cfg, true, CanonicalSkew); err != nil {
		return nil, err
	}
	return &out, nil
}
