package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

// paperAnchorH is the paper campaign's makespan at seed 1 under
// round-robin (paper: 16 h 18 min 43 s); the simulator must reproduce it.
const paperAnchorH = 16.31

// scaledRequests is the size of the scaled campaign: thousands of zoom
// requests on the paper deployment grown four times.
const scaledRequests = 4000

// scaledRunsPerRound is how many scaled campaigns a round runs.
const scaledRunsPerRound = 3

// simPhase is the sim-replay phase. Round 0 replays the paper campaign
// at seed 1 against its anchor and twice at the run seed, which must agree
// exactly; every round then runs the scaled campaign, whose every run must
// match the first.
type simPhase struct {
	seed int64
	tally
	makespanH float64   // the paper campaign at the run seed
	paperMS   []float64 // wall time of each paper-campaign run
	jobsPerS  []float64 // virtual jobs per wall second, per scaled run
	usPerJob  []float64
	scaledS   float64 // the scaled campaign's makespan, once known
}

func paperCampaign(seed int64) (*simgrid.ExperimentResult, time.Duration, error) {
	cfg := simgrid.DefaultExperiment(scheduler.NewRoundRobin())
	cfg.Seed = seed
	t0 := time.Now()
	res, err := simgrid.RunExperiment(cfg)
	return res, time.Since(t0), err
}

// round replays the paper campaign in round 0, then runs
// scaledRunsPerRound scaled campaigns; this phase has no window of its own.
func (s *simPhase) round(r int, _ time.Duration, tr *tracer) error {
	if r == 0 {
		s.replayPaper(tr)
	}
	dep, err := simgrid.ScaledDeployment(4)
	if err != nil {
		return err
	}
	cfg := simgrid.DefaultExperiment(nil)
	cfg.Deployment = dep
	cfg.NRequests = scaledRequests
	cfg.Seed = int64(derive(s.seed, stream(streamSim, 0, 0)) >> 1)
	for i := 0; i < scaledRunsPerRound; i++ {
		cfg.Policy = scheduler.NewRoundRobin()
		sp := tr.begin("simgrid.scaled_run", "", 0)
		t0 := time.Now()
		res, err := simgrid.RunExperiment(cfg)
		d := time.Since(t0)
		sp.end()
		if err == nil {
			err = checkCampaignRecords(res, scaledRequests)
		}
		if err == nil && s.scaledS != 0 && res.TotalS != s.scaledS {
			err = fmt.Errorf("%w: scaled campaign not deterministic: %v then %v s", errWrongOutput, s.scaledS, res.TotalS)
		}
		if !s.record(err) {
			continue
		}
		s.scaledS = res.TotalS
		jobs := float64(scaledRequests + 1) // the survey plus the zooms
		s.jobsPerS = append(s.jobsPerS, jobs/d.Seconds())
		s.usPerJob = append(s.usPerJob, us(d)/jobs)
	}
	return nil
}

// replayPaper runs the paper campaign at seed 1, checked against the
// anchor, and twice at the run seed, checked against each other.
func (s *simPhase) replayPaper(tr *tracer) {
	sp := tr.begin("simgrid.paper_anchor", "", 0)
	anchor, d, err := paperCampaign(1)
	sp.end()
	if err == nil {
		s.paperMS = append(s.paperMS, ms(d))
		if h := anchor.MakespanHours(); math.Abs(h-paperAnchorH) > 0.005 {
			err = fmt.Errorf("%w: seed-1 paper makespan %.4f h, anchor %.2f h", errWrongOutput, h, paperAnchorH)
		}
	}
	s.record(err)

	var first float64
	for i := 0; i < 2; i++ {
		sp := tr.begin("simgrid.paper_run", "", 0)
		res, d, err := paperCampaign(s.seed)
		sp.end()
		if err == nil {
			s.paperMS = append(s.paperMS, ms(d))
			err = checkCampaignRecords(res, 100)
		}
		if err == nil && i == 1 && res.TotalS != first {
			err = fmt.Errorf("%w: paper campaign at seed %d not deterministic: %v then %v s", errWrongOutput, s.seed, first, res.TotalS)
		}
		if s.record(err) {
			first = res.TotalS
			s.makespanH = res.MakespanHours()
		}
	}
}

func (s *simPhase) counts() *tally { return &s.tally }

func (s *simPhase) metrics() (e2e, perLayer metricSet, err error) {
	if s.makespanH == 0 || len(s.jobsPerS) == 0 {
		return nil, nil, fmt.Errorf("no paper or scaled campaign completed at seed %d", s.seed)
	}
	e2e.add("sim_jobs_per_s", "1/s", median(s.jobsPerS))
	e2e.add("sim_makespan_h", "h", s.makespanH)
	perLayer.add("simgrid.paper_run_ms", "ms", median(s.paperMS))
	perLayer.add("simgrid.us_per_job", "us", median(s.usPerJob))
	return e2e, perLayer, nil
}

// checkCampaignRecords checks that a simulated campaign completed every
// request with a positive makespan.
func checkCampaignRecords(r *simgrid.ExperimentResult, n int) error {
	if len(r.Records) != n || r.TotalS <= 0 {
		return fmt.Errorf("%w: %d of %d requests recorded, makespan %v s", errWrongOutput, len(r.Records), n, r.TotalS)
	}
	return nil
}
