package cori

import (
	"fmt"

	"repro/internal/scheduler"
)

// This file prices solves and dependency chains: it turns the per-service
// duration forecasts the monitors produce into solve prices and into the
// critical-path weights a workflow scheduler dispatches by. The live stack
// (internal/diet, internal/workflow) and the simulator (internal/simgrid)
// both call these helpers, so every ablation measures exactly the
// arithmetic the live campaigns run.

// solvePrice is the one trust rule every solve price goes through: the
// model's forecast when it is positive and trusted at minConfidence, else
// work over the advertised power (power <= 0 counts as 1). byModel reports
// which path produced the price.
func solvePrice(forecastS, confidence, minConfidence, workGFlops, powerGFlops float64) (seconds float64, byModel bool) {
	if forecastS > 0 && confidence >= minConfidence {
		return forecastS, true
	}
	if powerGFlops <= 0 {
		powerGFlops = 1
	}
	return workGFlops / powerGFlops, false
}

// PriceSolve prices workGFlops of one service on a server holding monitor
// m and advertising powerGFlops: the monitor's forecast when its model is
// trusted at scheduler.DefaultMinConfidence, else work over power. A nil
// monitor prices by power alone. The live SeD snapshots this price at
// admission and the simulator's virtual SeDs price dispatches with it.
func PriceSolve(m *Monitor, service string, workGFlops, powerGFlops float64) (seconds float64, byModel bool) {
	forecast, confidence := -1.0, 0.0
	if m != nil {
		if model, ok := m.Model(service); ok {
			forecast, confidence = model.SolveSeconds(workGFlops), model.Confidence
		}
	}
	return solvePrice(forecast, confidence, scheduler.DefaultMinConfidence, workGFlops, powerGFlops)
}

// BestEstimateSeconds prices workGFlops of one service from a collected
// estimate vector: the cheapest prediction across the offered servers,
// preferring each server's trusted forecast model and falling back to its
// advertised power when the model is absent or stale (the same graceful
// degradation as the forecast-aware policies). byModel reports whether the
// winning price came from a trusted model — the "forecast-priced" signal the
// workflow runner surfaces per dispatch. minConfidence <= 0 selects the
// shared scheduler.DefaultMinConfidence floor.
func BestEstimateSeconds(ests []scheduler.Estimate, workGFlops, minConfidence float64) (seconds float64, byModel bool) {
	if minConfidence <= 0 {
		minConfidence = scheduler.DefaultMinConfidence
	}
	found := false
	for _, e := range ests {
		sec, model := solvePrice(e.ForecastSolveSeconds(workGFlops), e.ForecastConfidence, minConfidence, workGFlops, e.PowerGFlops)
		if !found || sec < seconds || (sec == seconds && model && !byModel) {
			seconds, byModel, found = sec, model, true
		}
	}
	if !found {
		return 0, false
	}
	return seconds, byModel
}

// ChainPrices computes, for every node of a DAG, the price of its longest
// downstream chain: seconds[node] plus the most expensive chain among the
// nodes that depend on it. Launching ready nodes in decreasing order of this
// quantity is critical-path-first scheduling — the longest forecast-weighted
// chain advances first while cheaper branches overlap it. dependents maps a
// node to the nodes that depend on it; every referenced node must have an
// entry in seconds, and a cycle is an error.
func ChainPrices(seconds map[string]float64, dependents map[string][]string) (map[string]float64, error) {
	out := make(map[string]float64, len(seconds))
	const (
		onStack = 1
		done    = 2
	)
	state := make(map[string]int, len(seconds))
	var visit func(id string) (float64, error)
	visit = func(id string) (float64, error) {
		if _, ok := seconds[id]; !ok {
			return 0, fmt.Errorf("cori: chain pricing: unknown node %q", id)
		}
		switch state[id] {
		case done:
			return out[id], nil
		case onStack:
			return 0, fmt.Errorf("cori: chain pricing: cycle through %q", id)
		}
		state[id] = onStack
		best := 0.0
		for _, dep := range dependents[id] {
			v, err := visit(dep)
			if err != nil {
				return 0, err
			}
			if v > best {
				best = v
			}
		}
		out[id] = seconds[id] + best
		state[id] = done
		return out[id], nil
	}
	for id := range seconds {
		if _, err := visit(id); err != nil {
			return nil, err
		}
	}
	return out, nil
}
