package simgrid

import (
	"fmt"

	"repro/internal/cori"
	"repro/internal/deploy"
	"repro/internal/scheduler"
)

// This file runs the live-replanning ablation (A8): the paper's deployments
// are planned once and frozen, and the A6 ablation showed how much an
// *offline* replan (retrain, recompute the plan, restart everything) buys on
// a miscalibrated platform. A8 asks the sharper question the live-migration
// protocol answers: how much of that win does a long-lived hierarchy recover
// by replanning *itself*, mid-campaign, without a restart — periodic
// deploy.Replan passes re-advertising measured powers and migrating
// misplaced SeDs live, models carried across each move.
//
// An honest accounting of the two legs: in the simulator, SeD placement is
// latency-neutral (estimates and transfer times never read the parent), so
// the makespan gain of the live arm comes from the measured-power refreshes;
// the migration leg costs it a drain pause and exists to prove the protocol
// under measurement — the move happens mid-campaign, the model rides the
// snapshot round-trip, and the post-move forecast assertions hold. In the
// live middleware the placement additionally carries the §3.1 WAN-traffic
// cost that deploy.Plan.WANMessagesPerRequest scores.

// ReplanAblationConfig tunes the A8 arms.
type ReplanAblationConfig struct {
	// Rounds is the training depth of the offline arm (rounds-1 training
	// campaigns before the measured one), as in RunDeployAblation.
	Rounds int
	// ReplanIntervalS is the live arm's replanning cadence (default 6h — by
	// the first pass the misplaced SeD has completed measured solves, so its
	// migration carries a trusted model).
	ReplanIntervalS float64
	// MisplacedSeD names a SeD deployed under the wrong LA at bring-up, so
	// the live arm exercises a real migration, not just power refreshes
	// (default "Sophia2", parked under the grillon LA).
	MisplacedSeD    string
	MisplacedParent string
	// DriftSeD/DriftFactor/DriftAtS degrade one more SeD during the run
	// (default "Lille1" to 40% at 2h — before the phase-2 burst, so the
	// whole campaign runs on a platform no deployment file describes).
	DriftSeD    string
	DriftFactor float64
	DriftAtS    float64
}

func (c ReplanAblationConfig) withDefaults() ReplanAblationConfig {
	if c.Rounds < 2 {
		c.Rounds = 2
	}
	if c.ReplanIntervalS <= 0 {
		c.ReplanIntervalS = 6 * 3600
	}
	if c.MisplacedSeD == "" {
		c.MisplacedSeD = "Sophia2"
		c.MisplacedParent = "LA-grillon"
	}
	if c.MisplacedParent == "" {
		c.MisplacedParent = "LA-grillon"
	}
	if c.DriftSeD == "" {
		c.DriftSeD = "Lille1"
		c.DriftFactor = 0.4
	}
	if c.DriftFactor <= 0 {
		c.DriftFactor = 0.4
	}
	if c.DriftAtS <= 0 {
		c.DriftAtS = 2 * 3600
	}
	return c
}

// ReplanAblationResult compares three arms on the same drifting,
// miscalibrated platform (CanonicalSkew plus a mid-campaign drift event),
// all scheduled by the power-aware plug-in so the only difference is what
// the planner told it:
//
//   - Static: the hand-planned deployment, frozen — advertised powers
//     believed for the whole campaign.
//   - Live: the same cold start, but the hierarchy replans itself every
//     ReplanIntervalS from its own in-flight measurements and migrates SeDs
//     online (the diet.Agent.ApplyPlan mirror).
//   - Offline: the A6 gold standard — rounds-1 full training campaigns, then
//     a restart with the measured plan applied from t=0.
type ReplanAblationResult struct {
	Config ReplanAblationConfig

	Static  *ExperimentResult
	Live    *ExperimentResult
	Offline *ExperimentResult

	// Changes is what the offline replan moved (deploy.Replan diff).
	Changes []deploy.Change
}

// LiveGainPct is the makespan saving of live replanning over the frozen
// static plan — what the migration protocol buys without any restart.
func (r ReplanAblationResult) LiveGainPct() float64 {
	return 100 * (r.Static.TotalS - r.Live.TotalS) / r.Static.TotalS
}

// OfflineGainPct is the offline-replan saving over the static plan — the
// restart-shaped upper reference.
func (r ReplanAblationResult) OfflineGainPct() float64 {
	return 100 * (r.Static.TotalS - r.Offline.TotalS) / r.Static.TotalS
}

// RecoveryPct is how much of the offline-replan win live replanning
// recovered without a restart (can exceed 100 when drift, which offline
// training cannot see, makes the live arm the better plan).
func (r ReplanAblationResult) RecoveryPct() float64 {
	offline := r.Static.TotalS - r.Offline.TotalS
	if offline <= 0 {
		return 0
	}
	return 100 * (r.Static.TotalS - r.Live.TotalS) / offline
}

// Migrations flattens the live arm's migration events: SeD name → virtual
// time of its move.
func (r ReplanAblationResult) Migrations() map[string]float64 {
	out := make(map[string]float64)
	for _, ev := range r.Live.Replans {
		for _, sed := range ev.Moved {
			if _, dup := out[sed]; !dup {
				out[sed] = ev.AtS
			}
		}
	}
	return out
}

// FirstPostMoveForecastTrusted reports whether every migrated SeD both kept
// a trusted model through its move (the snapshot round-trip) and had its
// first post-move dispatch predicted by that model rather than the
// advertised-power fallback — the "no retraining after a move" guarantee.
// The reason string names the first violation.
func (r ReplanAblationResult) FirstPostMoveForecastTrusted() (bool, string) {
	moved := 0
	for _, ev := range r.Live.Replans {
		for _, sed := range ev.Moved {
			moved++
			if !ev.MovedModelTrusted[sed] {
				return false, fmt.Sprintf("%s's model came out of the %.0fs move untrusted", sed, ev.AtS)
			}
			rec := r.Live.FirstRecordOn(sed, ev.AtS)
			if rec == nil {
				continue // nothing more was dispatched there; nothing to mispredict
			}
			if !rec.PredictedByModel {
				return false, fmt.Sprintf("%s's first post-move dispatch (req %d) fell back to advertised power", sed, rec.ID)
			}
		}
	}
	if moved == 0 {
		return false, "the live arm never migrated a SeD"
	}
	return true, ""
}

// RunReplanAblation runs A8 on the given configuration template (Policy,
// Forecast, replanning, drift and placement fields are overridden per arm).
func RunReplanAblation(mkCfg func() ExperimentConfig, acfg ReplanAblationConfig) (*ReplanAblationResult, error) {
	acfg = acfg.withDefaults()
	base := func() ExperimentConfig {
		cfg := mkCfg()
		cfg.Policy = scheduler.NewPowerAware()
		cfg.TruePowerFactor = CanonicalSkew
		cfg.DriftAtS = acfg.DriftAtS
		cfg.DriftPowerFactor = map[string]float64{acfg.DriftSeD: acfg.DriftFactor}
		cfg.LiveParent = map[string]string{acfg.MisplacedSeD: acfg.MisplacedParent}
		// Campaigns span tens of virtual hours; measure on planning timescales.
		cfg.CoRI.HalfLife = TrainingHalfLife
		// The paper's all-at-once burst pre-makes every dispatch decision
		// before the first replan pass can fire; A8 paces submissions so
		// mid-campaign adaptation has decisions left to improve (the same
		// pacing the A4 sweeps study).
		if cfg.ArrivalGapS <= 0 {
			cfg.ArrivalGapS = 600
		}
		return cfg
	}
	out := &ReplanAblationResult{Config: acfg}
	var err error

	// Static arm: the frozen plan. Monitors attached for instrumentation
	// parity but nothing reads them.
	cfg := base()
	cfg.Forecast = true
	if out.Static, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation static arm: %w", err)
	}

	// Live arm: same cold start, replanning itself mid-campaign.
	cfg = base()
	cfg.Forecast = true
	cfg.ReplanIntervalS = acfg.ReplanIntervalS
	if out.Live, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation live arm: %w", err)
	}

	// Offline arm: rounds-1 training campaigns (static plan, like the real
	// operating point a deployment trains at), then a restart with the
	// measured plan applied from t=0. The restart also fixes the misplaced
	// SeD — that is what redeploying from the plan does.
	tcfg := base()
	tcfg.Forecast = true
	tcfg.Monitors = make(map[string]*cori.Monitor, len(tcfg.Deployment.SeDs))
	baseSeed := tcfg.Seed
	for r := 0; r < acfg.Rounds-1; r++ {
		tcfg.Seed = baseSeed + 1000 + int64(r)
		if _, err = RunExperiment(tcfg); err != nil {
			return nil, fmt.Errorf("simgrid: replan ablation training round %d: %w", r+1, err)
		}
	}
	plan, changes, err := deploy.Replan(tcfg.Deployment, deploy.Options{
		Capabilities: deploy.MonitorSource(tcfg.Monitors, replanService),
	})
	if err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation offline replan: %w", err)
	}
	out.Changes = changes
	mcfg := base()
	mcfg.Forecast = true
	mcfg.Seed = baseSeed
	mcfg.PlannedPower = plan.PowerByName()
	mcfg.LiveParent = nil // the restart redeploys everything where planned
	if out.Offline, err = RunExperiment(mcfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation offline arm: %w", err)
	}
	return out, nil
}
