// Command experiment regenerates the paper's evaluation (§6) at full scale
// with the discrete-event simulator: the Figure 5 distribution and per-SeD
// execution times, the Figure 6 finding-time and latency series, the §6.2
// totals, and — with -compare — the scheduling ablation the paper proposes
// as future work.
//
//	experiment -all                      # everything, round-robin (the paper's run)
//	experiment -fig5 -scheduler poweraware
//	experiment -compare                  # round-robin vs the plug-in schedulers
//	experiment -forecast -scheduler forecastaware   # CoRI monitors on every SeD
//	experiment -forecast-ablation        # A5: cold vs trained forecasting arms
//	experiment -deploy-ablation          # A6: measured-power planning + forecast-sized reservations
//	experiment -warmstart-ablation       # A7: cold vs warm-started SeD join (cluster model gossip)
//	experiment -failure-ablation         # A10: chaos schedule, self-healing vs fragile hierarchy
//	experiment -workflow-ablation        # A11: zoom-campaign DAGs, topo round-robin vs forecast critical-path
//	experiment -federation-ablation      # A12: 1 MA vs N federated MAs under a saturating stream
//	experiment -data-ablation            # A13: data-blind vs transfer-priced placement on a data-heavy sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

func main() {
	var (
		policyName = flag.String("scheduler", "roundrobin", "policy: roundrobin, random, mct, poweraware, forecastaware, contentionaware")
		requests   = flag.Int("requests", 100, "phase-2 sub-simulations")
		seed       = flag.Int64("seed", 1, "workload seed")
		fig5       = flag.Bool("fig5", false, "print the Figure 5 distribution")
		fig6       = flag.Bool("fig6", false, "print the Figure 6 series")
		totals     = flag.Bool("totals", false, "print the §6.2 totals")
		all        = flag.Bool("all", false, "print everything")
		compare    = flag.Bool("compare", false, "run the scheduler ablation (A1)")
		batch      = flag.Bool("batch", false, "route solves through OAR-style reservations (A3)")
		grantS     = flag.Float64("batch-grant", 30, "reservation grant delay, seconds")
		batchWall  = flag.Float64("batch-wall", 7200, "fixed reservation walltime, seconds; overruns are killed and requeued (0 = unbounded)")
		batchFc    = flag.Bool("batch-forecast", false, "size each reservation's walltime from the SeD's CoRI forecast (implies -batch and -forecast)")
		sweep      = flag.Bool("sweep", false, "run the capacity/workload scaling sweeps (A4)")
		arrivalGap = flag.Float64("arrival-gap", 0, "seconds between phase-2 submissions (0 = the paper's burst)")
		forecast   = flag.Bool("forecast", false, "attach a CoRI monitor to every SeD (history for forecastaware/contentionaware)")
		fcAblation = flag.Bool("forecast-ablation", false, "run the forecasting ablation (A5): static vs cold vs trained scheduling")
		dpAblation = flag.Bool("deploy-ablation", false, "run the deployment+reservation ablation (A6): static plan + fixed grants vs measured-power plan + forecast-sized walltimes")
		wsAblation = flag.Bool("warmstart-ablation", false, "run the warm-start ablation (A7): a SeD joins mid-campaign cold vs warm-started from its cluster's gossiped models")
		joinSeD    = flag.String("join", "Nancy2", "SeD that joins in the warm-start ablation (needs a cluster sibling)")
		rpAblation = flag.Bool("replan-ablation", false, "run the live-replanning ablation (A8): frozen plan vs live mid-campaign replanning+migration vs offline replan restart")
		rpInterval = flag.Float64("replan-interval", 0, "live arm replanning cadence, seconds (0 = the A8 default, 6h)")
		bfAblation = flag.Bool("backfill-ablation", false, "run the backfill ablation (A9): no backfill vs fixed-grant backfill vs forecast-sized backfill in the batch queue")
		bfNodes    = flag.Int("backfill-nodes", 0, "virtual cluster size for the backfill ablation (0 = the A9 default, 8)")
		flAblation = flag.Bool("failure-ablation", false, "run the failure ablation (A10): the canonical chaos schedule with self-healing armed vs a fragile hierarchy, against a zero-failure reference")
		flDetect   = flag.Float64("failure-detect", 0, "failure-ablation detection delay, seconds (0 = the default, 90 — three missed heartbeats)")
		wfAblation = flag.Bool("workflow-ablation", false, "run the workflow ablation (A11): zoom campaigns as Figure 4 DAGs, topo-order round-robin vs forecast-critical-path scheduling, honest and under CanonicalSkew")
		wfRuns     = flag.Int("workflow-campaigns", 0, "back-to-back campaigns per workflow-ablation arm (0 = the A11 default, 5; early ones train the models)")
		wfParallel = flag.Int("workflow-parallel", 0, "in-flight node cap per workflow campaign (0 = the A11 default, 3)")
		fedAblate  = flag.Bool("federation-ablation", false, "run the federation ablation (A12): the same saturating submission stream against one MA vs N federated MAs with sticky routing and peer forwarding")
		fedMAs     = flag.Int("federation-mas", 0, "federated arm width for the federation ablation (0 = the A12 default, 4)")
		fedRate    = flag.Float64("federation-rate", 0, "open-loop arrival rate of the federation ablation stream, requests/s (0 = the default, 100)")
		daAblation = flag.Bool("data-ablation", false, "run the data ablation (A13): data-blind vs transfer-priced placement on a persistent-data parameter sweep")
		daSizeMB   = flag.Float64("data-size-mb", 0, "snapshot size for the data ablation, MB (0 = the A13 default, 3000)")
		daSets     = flag.Int("data-sets", 0, "distinct snapshots in the data ablation sweep (0 = the A13 default, 6)")
		rounds     = flag.Int("rounds", 2, "campaigns per trained arm in the ablations (rounds-1 train, the last measures)")
	)
	flag.Parse()
	if !*fig5 && !*fig6 && !*totals && !*compare && !*sweep && !*fcAblation && !*dpAblation && !*wsAblation && !*rpAblation && !*bfAblation && !*flAblation && !*wfAblation && !*fedAblate && !*daAblation {
		*all = true
	}

	run := func(name string) *simgrid.ExperimentResult {
		pol, err := scheduler.ByName(name, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg := simgrid.DefaultExperiment(pol)
		cfg.NRequests = *requests
		cfg.Seed = *seed
		cfg.BatchMode = *batch || *batchFc // forecast-sized walltimes need reservations on
		cfg.BatchGrantS = *grantS
		cfg.BatchFixedWallS = *batchWall
		cfg.BatchForecast = *batchFc
		cfg.ArrivalGapS = *arrivalGap
		cfg.Forecast = *forecast || *batchFc || name == "forecastaware" || name == "contentionaware"
		res, err := simgrid.RunExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	if *sweep {
		mk := func() scheduler.Policy {
			pol, err := scheduler.ByName(*policyName, *seed)
			if err != nil {
				log.Fatal(err)
			}
			return pol
		}
		fmt.Printf("Sweep A4a — makespan vs SeD count (%d requests, policy=%s):\n", *requests, *policyName)
		points, err := simgrid.SweepSeDs(mk, []int{1, 2, 3, 4}, *requests)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  SeDs  makespan_h  speedup  mean_latency_h")
		for _, p := range points {
			fmt.Printf("  %4d  %10.2f  %7.1f  %14.2f\n", p.SeDs, p.MakespanHours, p.Speedup, p.MeanLatencyMS/3.6e6)
		}
		fmt.Printf("\nSweep A4b — makespan vs campaign size (11 SeDs, policy=%s):\n", *policyName)
		points, err = simgrid.SweepRequests(mk, []int{25, 50, 100, 200, 400})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  reqs  makespan_h  speedup  mean_latency_h")
		for _, p := range points {
			fmt.Printf("  %4d  %10.2f  %7.1f  %14.2f\n", p.Requests, p.MakespanHours, p.Speedup, p.MeanLatencyMS/3.6e6)
		}
		return
	}

	if *fcAblation {
		fmt.Println("Ablation A5 — CoRI forecasting vs static scheduling (paper §8 future work):")
		res, err := simgrid.RunForecastAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.BatchMode = *batch
			cfg.BatchGrantS = *grantS
			cfg.BatchFixedWallS = *batchWall
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, *rounds)
		if err != nil {
			log.Fatal(err)
		}
		row := func(name string, r *simgrid.ExperimentResult) {
			fmt.Printf("  %-20s makespan %s  (%.2fh)  speedup %.1fx\n",
				name, simgrid.Hours(r.TotalS), r.MakespanHours(), r.SequentialS/r.TotalS)
		}
		fmt.Println(" honest platform (advertised power = delivered power):")
		row("roundrobin", res.RoundRobin)
		row("poweraware", res.PowerAware)
		row("forecast (cold)", res.ForecastCold)
		row("forecast (trained)", res.ForecastTrained)
		row("contention (trained)", res.Contention)
		fmt.Printf("  → plug-in scheduling saves %.1f%% over round-robin (mostly the static A1 effect)\n",
			res.ImprovementPct())
		fmt.Println(" miscalibrated platform (Nancy delivers 35%, Sophia1 50% of advertised):")
		row("roundrobin", res.SkewRoundRobin)
		row("poweraware (misled)", res.SkewPowerAware)
		row("forecast (trained)", res.SkewTrained)
		fmt.Printf("  → measuring speed instead of trusting it saves %.1f%% over the misled static plug-in\n",
			res.ForecastGainPct())
		return
	}

	if *dpAblation {
		fmt.Println("Ablation A6 — static planning + fixed grants vs measured-power planning + forecast-sized reservations:")
		res, err := simgrid.RunDeployAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.BatchGrantS = *grantS
			cfg.BatchFixedWallS = *batchWall
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, *rounds)
		if err != nil {
			log.Fatal(err)
		}
		row := func(name string, r *simgrid.ExperimentResult) {
			fmt.Printf("  %-28s makespan %s (%.2fh)  kills %3d  requeues %3d  idle pad %6.1fh  wasted %6.1fh\n",
				name, simgrid.Hours(r.TotalS), r.MakespanHours(),
				r.Batch.OverrunKills, r.Batch.Requeues,
				r.Batch.IdlePadS/3600, r.Batch.WastedS/3600)
		}
		row("honest / static plan", res.Honest)
		fmt.Println(" miscalibrated platform (Nancy delivers 35%, Sophia1 50% of advertised):")
		row("static plan + fixed grants", res.Static)
		row("measured plan + forecasts", res.Trained)
		fmt.Printf("  → closing the forecast loop saves %.1f%% makespan and %.1f%% overrun+pad cost\n",
			res.MakespanGainPct(), res.ReservationGainPct())
		if len(res.Changes) > 0 {
			fmt.Printf("  replanned placements (after %d training round(s)):\n", res.Rounds-1)
			for _, c := range res.Changes {
				fmt.Printf("    %s\n", c)
			}
		}
		return
	}

	if *wsAblation {
		fmt.Println("Ablation A7 — cold vs warm-started SeD join on a characterized cluster:")
		res, err := simgrid.RunWarmStartAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, *joinSeD, *rounds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %s joins cluster %q after %d training round(s); prior services:\n", res.JoinSeD, res.Cluster, res.Rounds-1)
		for _, p := range res.Prior {
			fmt.Printf("   %-12s %d merged samples, confidence %.2f, delivered %.1f GFlops\n",
				p.Service, p.Samples, p.Confidence, p.DeliveredGFlops())
		}
		row := func(name string, r *simgrid.ExperimentResult, j simgrid.JoinStats) {
			fmt.Printf("  %-12s makespan %s (%.2fh)  join solves %3d  mean mispredict %5.1f%%  solves before trusted forecast %d\n",
				name, simgrid.Hours(r.TotalS), r.MakespanHours(), j.Solves, j.MeanMispredictPct, j.SolvesToForecast)
		}
		row("cold join", res.Cold, res.ColdJoin)
		row("warm join", res.Warm, res.WarmJoin)
		fmt.Printf("  → the gossiped prior removes %.1f points of forecast error and saves %.1f%% makespan\n",
			res.MispredictDeltaPts(), res.MakespanDeltaPct())
		return
	}

	if *rpAblation {
		fmt.Println("Ablation A8 — frozen static plan vs live replanning+migration vs offline replan restart:")
		res, err := simgrid.RunReplanAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, simgrid.ReplanAblationConfig{Rounds: *rounds, ReplanIntervalS: *rpInterval})
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
		return
	}

	if *bfAblation {
		fmt.Println("Ablation A9 — queue-wait cost of walltime sizing under conservative backfilling:")
		res, err := simgrid.RunBackfillAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, simgrid.BackfillAblationConfig{Rounds: *rounds, Nodes: *bfNodes})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %d jobs from the measured CanonicalSkew campaign packed onto a %d-node cluster\n", res.Jobs, res.Nodes)
		row := func(a simgrid.BackfillArm) {
			fmt.Printf("  %-24s mean wait %s  max wait %s  makespan %s  sized walltimes %3d  backfilled %3d (%d of them sized)  kills %d\n",
				a.Name, simgrid.Hours(a.MeanWaitS), simgrid.Hours(a.MaxWaitS), simgrid.Hours(a.MakespanS),
				a.ForecastSized, a.Backfilled, a.SizedBackfills, a.OverrunKills)
		}
		row(res.NoBackfill)
		row(res.FixedGrant)
		row(res.Forecast)
		fmt.Printf("  → forecast-sized walltimes cut mean queue wait %.1f%% vs fixed-grant backfill (%.1f%% vs no backfill) and makespan %.1f%%\n",
			res.WaitGainPct(), res.BackfillValuePct(), res.MakespanGainPct())
		return
	}

	if *flAblation {
		fmt.Println("Ablation A10 — failure injection: self-healing hierarchy vs fragile hierarchy:")
		res, err := simgrid.RunFailureAblation(func() simgrid.ExperimentConfig {
			cfg := simgrid.DefaultExperiment(nil)
			cfg.NRequests = *requests
			cfg.Seed = *seed
			cfg.ArrivalGapS = *arrivalGap
			return cfg
		}, simgrid.FailureAblationConfig{DetectS: *flDetect})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" canonical schedule: crash+restart, partition+heal, in-flight losses, one permanent node death, one tail outage")
		row := func(name string, r *simgrid.ExperimentResult) {
			fmt.Printf("  %-22s makespan %s (%.2fh)  solves lost %2d  requeued %2d\n",
				name, simgrid.Hours(r.TotalS), r.MakespanHours(), r.SolvesLost, r.Requeued)
		}
		row("no failures", res.Healthy)
		row("failures, self-healing", res.Healing)
		row("failures, fragile", res.Fragile)
		fmt.Printf("  → self-healing saves %.1f%% makespan and %d solves vs the fragile hierarchy, costing %.1f%% over the failure-free run\n",
			res.MakespanGainPct(), res.SolvesSaved(), res.HealingOverheadPct())
		if ok, why := res.RestartsWarm(); ok {
			fmt.Println("  every healed restart rejoined with a trusted forecast model (snapshot warm restore)")
		} else {
			fmt.Printf("  WARNING: %s\n", why)
		}
		for _, e := range res.Healing.FailureLog {
			fmt.Printf("  %8s  %-10s %-12s %s\n", simgrid.Hours(e.AtS), e.Node, e.Kind, e.Detail)
		}
		return
	}

	if *wfAblation {
		fmt.Println("Ablation A11 — zoom campaigns as workflow DAGs: topo round-robin vs forecast critical-path:")
		res, err := simgrid.RunWorkflowAblation(simgrid.WorkflowAblationConfig{
			Campaigns:   *wfRuns,
			MaxParallel: *wfParallel,
		})
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
		fmt.Printf("  → pricing stages from measured models saves %.1f%% of the trained campaign under CanonicalSkew\n",
			res.SkewGainPct())
		return
	}

	if *fedAblate {
		fmt.Println("Ablation A12 — multi-MA federation: single Master Agent vs federated mesh:")
		res, err := simgrid.RunFederationAblation(simgrid.FederationAblationConfig{
			MAs:           *fedMAs,
			ArrivalRateHz: *fedRate,
		})
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
		return
	}

	if *daAblation {
		fmt.Println("Ablation A13 — data-aware scheduling: transfer-priced vs data-blind placement:")
		res := simgrid.RunDataAblation(simgrid.DataAblationConfig{
			DatasetMB: *daSizeMB,
			Datasets:  *daSets,
			Seed:      *seed,
		})
		res.Print(os.Stdout)
		fmt.Printf("  → pricing input transfers from the trained pair models saves %.1f%% makespan and %.1f%% of the bytes moved\n",
			res.MakespanGainPct(), res.BytesSavedPct())
		return
	}

	if *compare {
		fmt.Println("Ablation A1 — default equal distribution vs the plug-in scheduler (paper §8):")
		for _, name := range []string{"roundrobin", "random", "mct", "poweraware", "forecastaware", "contentionaware"} {
			res := run(name)
			fmt.Printf("  %-15s makespan %s  (%.2fh)  speedup %.1fx\n",
				name, simgrid.Hours(res.TotalS), res.MakespanHours(),
				res.SequentialS/res.TotalS)
		}
		rr, pa := run("roundrobin"), run("poweraware")
		fmt.Printf("  plug-in scheduler saves %s (%.1f%%)\n",
			simgrid.Hours(rr.TotalS-pa.TotalS), 100*(rr.TotalS-pa.TotalS)/rr.TotalS)
		return
	}

	res := run(*policyName)
	if *all || *fig5 {
		res.PrintGantt(os.Stdout, 96)
		fmt.Println()
		res.PrintFig5(os.Stdout)
		fmt.Println()
	}
	if *all || *fig6 {
		res.PrintFig6(os.Stdout)
		fmt.Println()
	}
	if *all || *totals {
		res.PrintTotals(os.Stdout)
	}
}
