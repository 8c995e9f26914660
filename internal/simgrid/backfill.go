package simgrid

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/scheduler"
)

// This file mirrors the batch queue's conservative backfilling in virtual
// time and runs the backfill ablation (A9): what forecast-sized walltimes
// buy *inside the queue*. The paper's follow-up ("Cosmological Simulations
// on a Grid of Computers") found queue wait — not compute — dominating
// campaign makespan on shared clusters; conservative backfill can recover
// some of that wait, but only when walltimes are tight enough to fit the
// shadow windows. SimulateBatchQueue replays a job stream through an
// OAR-style multi-node queue — FIFO head starts, shadow bound from per-job
// walltimes, candidates ranked by batch.OrderBackfill, kill-and-requeue at
// walltime expiry — so the candidate-selection policy cannot drift from
// batch.System.schedule, and RunBackfillAblation compares no backfill,
// fixed-grant backfill and forecast-sized backfill on the CanonicalSkew
// platform.

// BatchQueueJob is one reservation in the virtual-time cluster batch queue.
// Inputs describe the submission; the Simulate* fields report what the
// scheduler did with it.
type BatchQueueJob struct {
	ID      int
	ArriveS float64 // virtual submission time
	Nodes   int
	WallS   float64 // granted walltime (first attempt; kills widen it)
	RunS    float64 // true compute time of the script
	Sized   bool    // walltime derived from a trusted CoRI forecast

	// Outputs, filled by SimulateBatchQueue.
	StartS     float64 // compute start of the completing attempt
	EndS       float64 // completion of the final attempt
	WaitS      float64 // queue wait (enqueue→start), summed over attempts
	Backfilled bool    // some attempt started ahead of FIFO order
	Kills      int     // attempts killed at walltime expiry
	Failed     bool    // exhausted the attempt budget (job never completed)
	// HeadBoundS is the tightest shadow bound a backfill pass promised the
	// job's last-started attempt while it was the protected head of the
	// queue, or -1 when no pass ever backfilled against it.
	HeadBoundS float64
	// ShadowViolations counts attempts that started later than a shadow
	// bound promised to them while they were head of the queue. Honest
	// conservative backfilling keeps this at 0 — the shadow-time invariant
	// the property tests assert.
	ShadowViolations int
}

// BatchQueueConfig sizes the virtual cluster queue.
type BatchQueueConfig struct {
	Nodes    int
	Backfill bool
	// RequeueFactor widens the grant after a walltime kill (default 2,
	// mirroring batch.WalltimePolicy.RequeueFactor).
	RequeueFactor float64
	// MaxAttempts bounds kill-and-requeue retries (default
	// batch.DefaultMaxAttempts).
	MaxAttempts int
}

// bfQueued is one waiting attempt.
type bfQueued struct {
	job        *BatchQueueJob
	enqueueS   float64
	attempt    int
	wallS      float64 // this attempt's grant (widened after kills)
	headBoundS float64 // tightest shadow bound promised while head; <0 = none
}

// bfRunning is one attempt occupying nodes.
type bfRunning struct {
	job      *BatchQueueJob
	wallS    float64
	boundS   float64 // start + walltime: the conservative release bound
	releaseS float64 // actual release: start + min(walltime, run)
	killed   bool    // the attempt hits its walltime before the script ends
}

// SimulateBatchQueue replays the job stream through the OAR-style queue in
// virtual time. Scheduling decisions happen at arrivals and releases, the
// way batch.System.schedule runs on Submit and on job settle: the FIFO head
// starts while it fits; with Backfill, later jobs that fit the free nodes
// and are walltime-bounded to finish before the head's shadow bound may
// jump ahead, ranked by batch.OrderBackfill (forecast-sized first, then
// tighter walltimes, then submission order). An attempt whose script
// outlives its grant is killed at expiry and requeued with a
// RequeueFactor-widened grant up to MaxAttempts. Jobs are mutated in place.
func SimulateBatchQueue(cfg BatchQueueConfig, jobs []*BatchQueueJob) error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("simgrid: batch queue needs >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.RequeueFactor <= 1 {
		cfg.RequeueFactor = 2
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = batch.DefaultMaxAttempts
	}
	for _, j := range jobs {
		if j.Nodes < 1 || j.Nodes > cfg.Nodes {
			return fmt.Errorf("simgrid: job %d requests %d nodes, cluster has %d", j.ID, j.Nodes, cfg.Nodes)
		}
		if j.WallS <= 0 || j.RunS <= 0 {
			return fmt.Errorf("simgrid: job %d needs positive walltime and runtime", j.ID)
		}
		j.HeadBoundS = -1
	}
	arrivals := append([]*BatchQueueJob(nil), jobs...)
	sort.SliceStable(arrivals, func(i, k int) bool { return arrivals[i].ArriveS < arrivals[k].ArriveS })

	free := cfg.Nodes
	var queue []*bfQueued
	var running []*bfRunning

	start := func(q *bfQueued, t float64, backfilled bool) {
		free -= q.job.Nodes
		killed := q.job.RunS > q.wallS
		dur := q.job.RunS
		if killed {
			dur = q.wallS
		}
		q.job.WaitS += t - q.enqueueS
		q.job.StartS = t
		if backfilled {
			q.job.Backfilled = true
		}
		if q.headBoundS >= 0 {
			q.job.HeadBoundS = q.headBoundS
			if t > q.headBoundS+1e-6 {
				q.job.ShadowViolations++
			}
		}
		running = append(running, &bfRunning{
			job: q.job, wallS: q.wallS, boundS: t + q.wallS, releaseS: t + dur, killed: killed,
		})
	}

	// headBound mirrors System.headStartBound: the earliest time enough
	// nodes free up for the head, assuming running attempts use their full
	// walltime.
	headBound := func(head *bfQueued) float64 {
		bounds := make([]*bfRunning, len(running))
		copy(bounds, running)
		sort.Slice(bounds, func(i, k int) bool { return bounds[i].boundS < bounds[k].boundS })
		avail := free
		for _, r := range bounds {
			avail += r.job.Nodes
			if avail >= head.job.Nodes {
				return r.boundS
			}
		}
		return math.Inf(1) // cannot happen: Nodes was validated against the cluster
	}

	schedule := func(t float64) {
		for len(queue) > 0 && queue[0].job.Nodes <= free {
			start(queue[0], t, false)
			queue = queue[1:]
		}
		if !cfg.Backfill || len(queue) < 2 || free == 0 {
			return
		}
		head := queue[0]
		shadow := headBound(head)
		cands := make([]batch.BackfillCandidate, 0, len(queue)-1)
		for i, q := range queue[1:] {
			cands = append(cands, batch.BackfillCandidate{
				Queue: i + 1, Nodes: q.job.Nodes,
				Walltime:      time.Duration(q.wallS * float64(time.Second)),
				ForecastSized: q.job.Sized,
			})
		}
		picks := batch.SelectBackfill(cands, free, time.Duration((shadow-t)*float64(time.Second)))
		if len(picks) == 0 {
			return
		}
		if head.headBoundS < 0 || shadow < head.headBoundS {
			head.headBoundS = shadow
		}
		started := make(map[int]bool, len(picks))
		for _, c := range picks {
			started[c.Queue] = true
			start(queue[c.Queue], t, true)
		}
		rest := make([]*bfQueued, 0, len(queue)-len(started))
		for i, q := range queue {
			if !started[i] {
				rest = append(rest, q)
			}
		}
		queue = rest
	}

	next := 0
	for next < len(arrivals) || len(queue) > 0 || len(running) > 0 {
		t := math.Inf(1)
		if next < len(arrivals) {
			t = arrivals[next].ArriveS
		}
		for _, r := range running {
			if r.releaseS < t {
				t = r.releaseS
			}
		}
		if math.IsInf(t, 1) {
			return fmt.Errorf("simgrid: batch queue wedged with %d jobs waiting", len(queue))
		}
		keep := running[:0]
		for _, r := range running {
			if r.releaseS > t {
				keep = append(keep, r)
				continue
			}
			free += r.job.Nodes
			if !r.killed {
				r.job.EndS = r.releaseS
				continue
			}
			// Killed at expiry: the attempt's compute is thrown away and the
			// job requeues at the tail with a widened grant, like
			// batch.ForecastExecutor's kill-and-requeue.
			r.job.Kills++
			if r.job.Kills >= cfg.MaxAttempts {
				r.job.Failed = true
				r.job.EndS = r.releaseS
				continue
			}
			queue = append(queue, &bfQueued{
				job: r.job, enqueueS: t, attempt: r.job.Kills + 1,
				wallS: r.wallS * cfg.RequeueFactor, headBoundS: -1,
			})
		}
		running = keep
		for next < len(arrivals) && arrivals[next].ArriveS <= t {
			j := arrivals[next]
			queue = append(queue, &bfQueued{job: j, enqueueS: j.ArriveS, attempt: 1, wallS: j.WallS, headBoundS: -1})
			next++
		}
		schedule(t)
	}
	return nil
}

// BackfillArm aggregates one arm of the backfill ablation.
type BackfillArm struct {
	Name           string
	MeanWaitS      float64 // mean queue wait over all jobs
	MaxWaitS       float64
	MakespanS      float64 // last completion
	Backfilled     int     // jobs started ahead of FIFO order
	SizedBackfills int     // forecast-sized jobs among the backfilled
	ForecastSized  int     // jobs whose walltime came from a trusted forecast
	OverrunKills   int     // attempts killed at walltime expiry
}

// BackfillAblationConfig tunes RunBackfillAblation. Zero values select the
// canonical A9 setup.
type BackfillAblationConfig struct {
	// Rounds is campaigns per training: rounds-1 train the monitors, the
	// last supplies the measured job stream (default 2).
	Rounds int
	// Nodes is the virtual cluster the job stream is packed onto (default
	// 8 — fewer than the deployment's 11 SeDs, so the queue is contended,
	// with enough width that wide jobs leave backfillable slack).
	Nodes int
	// WideEvery makes every n-th job a wide multi-node ensemble run that
	// blocks the queue head and opens backfill windows (default 7).
	WideEvery int
	// WideNodes is the width of those jobs (default Nodes-2).
	WideNodes int
}

// BackfillAblationResult compares the three arms of A9 on one job stream.
type BackfillAblationResult struct {
	Jobs  int
	Nodes int

	// NoBackfill runs the stream pure FIFO with user-bucketed fixed grants.
	NoBackfill BackfillArm
	// FixedGrant enables conservative backfill over the same user-bucketed
	// grants — what backfill buys when walltimes are padded user guesses.
	FixedGrant BackfillArm
	// Forecast enables backfill with walltimes sized from the trained CoRI
	// models through batch.WalltimePolicy — tight bounds fit shadow windows
	// the padded grants cannot.
	Forecast BackfillArm
}

// WaitGainPct is the mean-queue-wait saving of forecast-sized backfill over
// fixed-grant backfill — the headline A9 number.
func (r *BackfillAblationResult) WaitGainPct() float64 {
	if r.FixedGrant.MeanWaitS <= 0 {
		return 0
	}
	return 100 * (r.FixedGrant.MeanWaitS - r.Forecast.MeanWaitS) / r.FixedGrant.MeanWaitS
}

// MakespanGainPct is the makespan saving of forecast-sized backfill over
// fixed-grant backfill.
func (r *BackfillAblationResult) MakespanGainPct() float64 {
	if r.FixedGrant.MakespanS <= 0 {
		return 0
	}
	return 100 * (r.FixedGrant.MakespanS - r.Forecast.MakespanS) / r.FixedGrant.MakespanS
}

// BackfillValuePct is the mean-queue-wait saving of forecast-sized backfill
// over no backfill at all.
func (r *BackfillAblationResult) BackfillValuePct() float64 {
	if r.NoBackfill.MeanWaitS <= 0 {
		return 0
	}
	return 100 * (r.NoBackfill.MeanWaitS - r.Forecast.MeanWaitS) / r.NoBackfill.MeanWaitS
}

// userGrantBuckets are the round walltimes users actually request: the
// true runtime padded by half, rounded up to the next bucket.
var userGrantBuckets = []float64{2 * 3600, 6 * 3600, 12 * 3600, 24 * 3600}

func userGrantS(runS float64) float64 {
	want := 1.5 * runS
	for _, b := range userGrantBuckets {
		if b >= want {
			return b
		}
	}
	return userGrantBuckets[len(userGrantBuckets)-1]
}

// RunBackfillAblation runs A9: train CoRI monitors over rounds-1 campaigns
// on the CanonicalSkew platform (forecast-aware scheduling, exactly like the
// other trained ablations), take the measured campaign's solves as a batch
// job stream — each record's true duration, work size and submission time,
// with every WideEvery-th job widened into a multi-node ensemble run — and
// pack it onto a contended virtual cluster three ways: pure FIFO, backfill
// over user-bucketed fixed grants, and backfill over forecast-sized grants
// (batch.WalltimePolicy over the per-SeD trained model, the same shared
// policy the live ForecastExecutor runs). Queue-wait and makespan tell how
// much of the follow-up paper's dominant cost forecast sizing recovers.
func RunBackfillAblation(mkCfg func() ExperimentConfig, abl BackfillAblationConfig) (*BackfillAblationResult, error) {
	if abl.Rounds < 2 {
		abl.Rounds = 2
	}
	if abl.Nodes < 2 {
		abl.Nodes = 8
	}
	if abl.WideEvery < 2 {
		abl.WideEvery = 7
	}
	if abl.WideNodes < 2 || abl.WideNodes > abl.Nodes {
		abl.WideNodes = abl.Nodes - 2
		if abl.WideNodes < 2 {
			abl.WideNodes = 2
		}
	}

	cfg := mkCfg()
	cfg.Policy = scheduler.NewForecastAware()
	cfg.Forecast = true
	cfg.TruePowerFactor = CanonicalSkew
	cfg.CoRI.HalfLife = TrainingHalfLife
	cfg.Monitors = make(map[string]*cori.Monitor, len(cfg.Deployment.SeDs))
	results, err := RunExperimentRounds(cfg, abl.Rounds)
	if err != nil {
		return nil, fmt.Errorf("simgrid: backfill ablation training: %w", err)
	}
	final := results[len(results)-1]
	if len(final.Records) < 2*abl.WideEvery {
		return nil, fmt.Errorf("simgrid: backfill ablation needs >= %d requests, got %d", 2*abl.WideEvery, len(final.Records))
	}

	// One job template per measured solve; per-arm copies are re-sized below.
	type jobSpec struct {
		arriveS, runS, workGFlops float64
		nodes                     int
		sed                       string
	}
	specs := make([]jobSpec, len(final.Records))
	for i, rec := range final.Records {
		nodes := 1
		if (i+1)%abl.WideEvery == 0 {
			nodes = abl.WideNodes
		}
		specs[i] = jobSpec{
			arriveS: rec.SubmitS, runS: rec.DurationS(), workGFlops: rec.WorkGFlops,
			nodes: nodes, sed: rec.SeD,
		}
	}

	mkJobs := func(forecastSized bool) []*BatchQueueJob {
		out := make([]*BatchQueueJob, len(specs))
		for i, sp := range specs {
			j := &BatchQueueJob{
				ID: i + 1, ArriveS: sp.arriveS, Nodes: sp.nodes,
				RunS: sp.runS, WallS: userGrantS(sp.runS),
			}
			if forecastSized {
				pol := batch.WalltimePolicy{Fixed: time.Duration(j.WallS * float64(time.Second))}
				if mon := cfg.Monitors[sp.sed]; mon != nil {
					if model, ok := mon.Model("ramsesZoom2"); ok {
						if w, ok := pol.FromForecast(model.SolveSeconds(sp.workGFlops), model.Confidence); ok {
							j.WallS, j.Sized = w.Seconds(), true
						}
					}
				}
			}
			out[i] = j
		}
		return out
	}

	runArm := func(name string, backfill, forecastSized bool) (BackfillArm, error) {
		jobs := mkJobs(forecastSized)
		if err := SimulateBatchQueue(BatchQueueConfig{Nodes: abl.Nodes, Backfill: backfill}, jobs); err != nil {
			return BackfillArm{}, fmt.Errorf("simgrid: backfill ablation %s arm: %w", name, err)
		}
		arm := BackfillArm{Name: name}
		var sumWait float64
		for _, j := range jobs {
			if j.Failed {
				return BackfillArm{}, fmt.Errorf("simgrid: backfill ablation %s arm: job %d exhausted its attempt budget", name, j.ID)
			}
			sumWait += j.WaitS
			if j.WaitS > arm.MaxWaitS {
				arm.MaxWaitS = j.WaitS
			}
			if j.EndS > arm.MakespanS {
				arm.MakespanS = j.EndS
			}
			if j.Backfilled {
				arm.Backfilled++
				if j.Sized {
					arm.SizedBackfills++
				}
			}
			if j.Sized {
				arm.ForecastSized++
			}
			arm.OverrunKills += j.Kills
		}
		arm.MeanWaitS = sumWait / float64(len(jobs))
		return arm, nil
	}

	out := &BackfillAblationResult{Jobs: len(specs), Nodes: abl.Nodes}
	if out.NoBackfill, err = runArm("no backfill", false, false); err != nil {
		return nil, err
	}
	if out.FixedGrant, err = runArm("fixed-grant backfill", true, false); err != nil {
		return nil, err
	}
	if out.Forecast, err = runArm("forecast-sized backfill", true, true); err != nil {
		return nil, err
	}
	return out, nil
}
