package simgrid

import (
	"fmt"
	"time"

	"repro/internal/cori"
	"repro/internal/scheduler"
)

// This file runs the §6.2-style forecasting ablation: the same CoRI monitor
// the live SeDs host (internal/cori), driven in the simulator's virtual time
// so campaigns train duration models at zero wall-clock cost, and a
// multi-round driver that carries the trained models into fresh campaigns —
// the "history-aware scheduling" experiment the paper's conclusion asks for.

// virtualEpoch anchors the simulator's second-counter to a fixed wall-clock
// origin so cori timestamps are reproducible.
var virtualEpoch = time.Unix(1_000_000_000, 0).UTC()

// virtualClock adapts the discrete-event simulator's clock to the
// cori.Monitor's injectable now().
func virtualClock(sim *Sim) func() time.Time {
	return func() time.Time {
		return virtualEpoch.Add(time.Duration(sim.Now() * float64(time.Second)))
	}
}

// RunExperimentRounds replays the campaign rounds times, carrying each SeD's
// trained CoRI monitor from one round into the next (fresh queues, retained
// history — successive observing nights on the same testbed). The rounds-1
// training rounds run through trainRounds; the final round runs the cfg.Seed
// workload so its result is directly comparable to a single RunExperiment of
// any policy on the same seed. It returns one result per round; with a
// history-aware policy the later rounds schedule on measured models where
// round one could only trust advertised powers.
//
// Note: each round restarts virtual time, so a carried model's age resets —
// between-round staleness is not simulated.
func RunExperimentRounds(cfg ExperimentConfig, rounds int) ([]*ExperimentResult, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("simgrid: rounds must be >= 1, got %d", rounds)
	}
	cfg.Forecast = true
	if cfg.Monitors == nil {
		cfg.Monitors = make(map[string]*cori.Monitor, len(cfg.Deployment.SeDs))
	}
	out, err := trainRounds(cfg, rounds-1)
	if err != nil {
		return nil, err
	}
	res, err := RunExperiment(cfg)
	if err != nil {
		return nil, fmt.Errorf("simgrid: forecast round %d: %w", rounds, err)
	}
	return append(out, res), nil
}

// trainRounds runs n training campaigns of cfg, the one training-seed rule
// every multi-round driver shares: round r draws seed cfg.Seed+1000+r, so
// the models never see the measured cfg.Seed workload. Whatever the rounds
// learn lands in cfg.Monitors.
func trainRounds(cfg ExperimentConfig, n int) ([]*ExperimentResult, error) {
	var out []*ExperimentResult
	seed := cfg.Seed
	for r := 0; r < n; r++ {
		cfg.Seed = seed + 1000 + int64(r)
		res, err := RunExperiment(cfg)
		if err != nil {
			return nil, fmt.Errorf("simgrid: training round %d: %w", r+1, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// CanonicalSkew is the miscalibration scenario of the forecast ablation:
// the advertised-fastest SeDs actually deliver a fraction of their power
// (degraded nodes, background load — what a static deployment file cannot
// see). Keys are SeD names of the paper deployment, values multiply the
// delivered power.
var CanonicalSkew = map[string]float64{"Nancy1": 0.35, "Nancy2": 0.35, "Sophia1": 0.5}

// ForecastAblationResult compares the paper's default scheduling against the
// history-aware plug-ins, on the honest platform and on the same platform
// with CanonicalSkew miscalibration. The honest arms show graceful
// degradation (forecasting must not lose to the static plug-in); the skewed
// arms isolate what measuring — rather than trusting — server speed buys.
type ForecastAblationResult struct {
	RoundRobin      *ExperimentResult
	PowerAware      *ExperimentResult
	ForecastCold    *ExperimentResult // forecastaware, no prior history
	ForecastTrained *ExperimentResult // forecastaware, after Rounds-1 training rounds
	Contention      *ExperimentResult // contentionaware, after the same training

	SkewRoundRobin *ExperimentResult // miscalibrated platform, equal distribution
	SkewPowerAware *ExperimentResult // miscalibrated platform, misled static plug-in
	SkewTrained    *ExperimentResult // miscalibrated platform, trained forecastaware
}

// ImprovementPct is the makespan saving of the trained forecast-aware run
// over round-robin on the honest platform, in percent. Note this includes
// the static power-aware effect (ablation A1); ForecastGainPct isolates the
// forecasting subsystem's own contribution.
func (r ForecastAblationResult) ImprovementPct() float64 {
	return 100 * (r.RoundRobin.TotalS - r.ForecastTrained.TotalS) / r.RoundRobin.TotalS
}

// ForecastGainPct is the makespan saving of trained forecasting over the
// misled static power-aware plug-in on the miscalibrated platform — the
// value attributable to measuring server speed instead of trusting it.
func (r ForecastAblationResult) ForecastGainPct() float64 {
	return 100 * (r.SkewPowerAware.TotalS - r.SkewTrained.TotalS) / r.SkewPowerAware.TotalS
}

// RunForecastAblation runs the full comparison on the given configuration
// template (Policy and Forecast fields are overridden per arm). rounds ≥ 2
// gives the trained arms rounds-1 campaigns of history before the measured
// round.
func RunForecastAblation(mkCfg func() ExperimentConfig, rounds int) (*ForecastAblationResult, error) {
	if rounds < 2 {
		rounds = 2
	}
	run := func(policy scheduler.Policy, forecast bool, skew map[string]float64) (*ExperimentResult, error) {
		cfg := mkCfg()
		cfg.Policy = policy
		cfg.Forecast = forecast
		cfg.TruePowerFactor = skew
		return RunExperiment(cfg)
	}
	trained := func(policy scheduler.Policy, skew map[string]float64) (*ExperimentResult, error) {
		cfg := mkCfg()
		cfg.Policy = policy
		cfg.TruePowerFactor = skew
		all, err := RunExperimentRounds(cfg, rounds)
		if err != nil {
			return nil, err
		}
		return all[len(all)-1], nil
	}
	var (
		out ForecastAblationResult
		err error
	)
	if out.RoundRobin, err = run(scheduler.NewRoundRobin(), false, nil); err != nil {
		return nil, err
	}
	if out.PowerAware, err = run(scheduler.NewPowerAware(), false, nil); err != nil {
		return nil, err
	}
	if out.ForecastCold, err = run(scheduler.NewForecastAware(), true, nil); err != nil {
		return nil, err
	}
	if out.ForecastTrained, err = trained(scheduler.NewForecastAware(), nil); err != nil {
		return nil, err
	}
	if out.Contention, err = trained(scheduler.NewContentionAware(), nil); err != nil {
		return nil, err
	}
	if out.SkewRoundRobin, err = run(scheduler.NewRoundRobin(), false, CanonicalSkew); err != nil {
		return nil, err
	}
	if out.SkewPowerAware, err = run(scheduler.NewPowerAware(), false, CanonicalSkew); err != nil {
		return nil, err
	}
	if out.SkewTrained, err = trained(scheduler.NewForecastAware(), CanonicalSkew); err != nil {
		return nil, err
	}
	return &out, nil
}
