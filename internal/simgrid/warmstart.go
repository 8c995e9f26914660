package simgrid

import (
	"fmt"
	"sort"

	"repro/internal/cori"
	"repro/internal/scheduler"
)

// This file runs the warm-start ablation (A7): the value of cluster-keyed
// model gossip. A SeD joins a campaign on a cluster its siblings have
// already characterized; the cold arm boots it with an empty monitor (the
// power-aware fallback prices its first solves from advertised power), the
// warm arm seeds it with the confidence-weighted merge of its cluster
// siblings' trained models — exactly what diet.Agent hands a registering SeD
// from its gossip registry — and the ablation measures how many solves each
// arm mispredicts before the forecasts calibrate.

// JoinStats aggregates the joining SeD's behaviour over one arm.
type JoinStats struct {
	// Solves is how many requests the campaign placed on the joining SeD.
	Solves int
	// MeanMispredictPct is the mean relative error between the duration the
	// scheduler's view implied at dispatch and the realized duration.
	MeanMispredictPct float64
	// SolvesToForecast is how many solves were dispatched to the SeD before
	// its prediction first came from a trusted CoRI model rather than the
	// advertised-power fallback — 0 when the SeD joined warm.
	SolvesToForecast int
}

// WarmStartAblationResult compares a cold against a warm-started join of the
// same SeD into the same campaign on a miscalibrated platform.
type WarmStartAblationResult struct {
	JoinSeD string
	Cluster string // resource class the prior was keyed by
	Rounds  int    // campaigns run before the join (training) plus the measured one

	// Prior is the merged cluster model handed to the warm arm, per service.
	Prior []cori.Model

	Cold *ExperimentResult // joining SeD boots with an empty monitor
	Warm *ExperimentResult // joining SeD warm-starts from the cluster prior

	ColdJoin JoinStats
	WarmJoin JoinStats
}

// MakespanDeltaPct is the campaign makespan saving of the warm join over the
// cold join, in percent.
func (r WarmStartAblationResult) MakespanDeltaPct() float64 {
	return 100 * (r.Cold.TotalS - r.Warm.TotalS) / r.Cold.TotalS
}

// MispredictDeltaPts is how many percentage points of mean forecast error
// the warm start removed on the joining SeD.
func (r WarmStartAblationResult) MispredictDeltaPts() float64 {
	return r.ColdJoin.MeanMispredictPct - r.WarmJoin.MeanMispredictPct
}

// joinStats folds the joining SeD's records (in execution order) into the
// arm's statistics.
func joinStats(res *ExperimentResult, sed string) JoinStats {
	var recs []RequestRecord
	for _, r := range res.Records {
		if r.SeD == sed {
			recs = append(recs, r)
		}
	}
	if res.Phase1.SeD == sed {
		recs = append(recs, res.Phase1)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].StartS < recs[j].StartS })
	out := JoinStats{Solves: len(recs), SolvesToForecast: len(recs)}
	var sum float64
	for i, r := range recs {
		sum += r.MispredictPct()
		if r.PredictedByModel && out.SolvesToForecast == len(recs) {
			out.SolvesToForecast = i
		}
	}
	if len(recs) > 0 {
		out.MeanMispredictPct = sum / float64(len(recs))
	}
	return out
}

// RunWarmStartAblation trains the deployment *without* joinSeD for rounds-1
// campaigns (forecast-aware scheduling on the CanonicalSkew platform), then
// runs the measured campaign with joinSeD present — once cold, once
// warm-started from the confidence-weighted merge of its cluster siblings'
// trained models, carried through a cori.Registry exactly as the live agent
// hierarchy gossips it. The veterans' monitors are cloned per arm through
// the snapshot round-trip, so neither arm's training leaks into the other.
func RunWarmStartAblation(mkCfg func() ExperimentConfig, joinSeD string, rounds int) (*WarmStartAblationResult, error) {
	if rounds < 2 {
		rounds = 2
	}
	base := func() ExperimentConfig {
		cfg := mkCfg()
		cfg.Policy = scheduler.NewForecastAware()
		cfg.Forecast = true
		cfg.TruePowerFactor = CanonicalSkew
		// Campaigns span tens of virtual hours; train on planning timescales.
		cfg.CoRI.HalfLife = TrainingHalfLife
		return cfg
	}
	cfg := base()
	cluster, hasSibling := "", false
	join := -1
	for i, p := range cfg.Deployment.SeDs {
		if p.Name == joinSeD {
			join = i
			cluster = p.Cluster
		}
	}
	if join < 0 {
		return nil, fmt.Errorf("simgrid: warm-start ablation: deployment has no SeD %q", joinSeD)
	}
	for i, p := range cfg.Deployment.SeDs {
		if i != join && p.Cluster == cluster {
			hasSibling = true
			break
		}
	}
	if !hasSibling {
		return nil, fmt.Errorf("simgrid: warm-start ablation: SeD %q has no cluster sibling to gossip a prior from (cluster %q)", joinSeD, cluster)
	}
	out := &WarmStartAblationResult{JoinSeD: joinSeD, Cluster: cluster, Rounds: rounds}

	// Training rounds: the grid before the join, with joinSeD absent.
	tcfg := base()
	kept := tcfg.Deployment.SeDs[:0:0]
	for _, p := range tcfg.Deployment.SeDs {
		if p.Name != joinSeD {
			kept = append(kept, p)
		}
	}
	tcfg.Deployment.SeDs = kept
	tcfg.Monitors = make(map[string]*cori.Monitor, len(kept))
	if _, err := trainRounds(tcfg, rounds-1); err != nil {
		return nil, fmt.Errorf("simgrid: warm-start ablation: %w", err)
	}

	// Aggregate the trained models into a cluster-keyed registry — the same
	// structure the agent hierarchy gossips — and merge the join cluster's
	// prior.
	registry := cori.NewRegistry()
	for _, p := range kept {
		mon := tcfg.Monitors[p.Name]
		if mon == nil {
			continue
		}
		var models []cori.Model
		for _, svc := range mon.Services() {
			if m, ok := mon.Model(svc); ok {
				models = append(models, m)
			}
		}
		registry.Update(p.Name, p.Cluster, virtualEpoch, models)
	}
	out.Prior = registry.PriorsFor(cluster)
	if len(out.Prior) == 0 {
		return nil, fmt.Errorf("simgrid: warm-start ablation: training produced no prior for cluster %q", cluster)
	}

	// Each measured arm gets its own copy of the veterans' training (snapshot
	// round-trip), so the arms cannot contaminate each other.
	cloneMonitors := func() (map[string]*cori.Monitor, error) {
		monitors := make(map[string]*cori.Monitor, len(tcfg.Monitors))
		for name, m := range tcfg.Monitors {
			clone := cori.NewMonitor(tcfg.CoRI)
			if err := clone.Restore(m.Snapshot()); err != nil {
				return nil, fmt.Errorf("simgrid: cloning %s monitor: %w", name, err)
			}
			monitors[name] = clone
		}
		return monitors, nil
	}

	arm := func(warm bool) (*ExperimentResult, error) {
		cfg := base()
		monitors, err := cloneMonitors()
		if err != nil {
			return nil, err
		}
		if warm {
			joiner := cori.NewMonitor(cfg.CoRI)
			for _, prior := range out.Prior {
				joiner.WarmStart(prior)
			}
			monitors[joinSeD] = joiner
		}
		cfg.Monitors = monitors
		return RunExperiment(cfg)
	}
	var err error
	if out.Cold, err = arm(false); err != nil {
		return nil, fmt.Errorf("simgrid: warm-start cold arm: %w", err)
	}
	if out.Warm, err = arm(true); err != nil {
		return nil, fmt.Errorf("simgrid: warm-start warm arm: %w", err)
	}
	out.ColdJoin = joinStats(out.Cold, joinSeD)
	out.WarmJoin = joinStats(out.Warm, joinSeD)
	return out, nil
}
