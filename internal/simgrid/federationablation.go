package simgrid

import (
	"fmt"
	"io"
)

// This file runs the federation ablation (A12; A11 stays reserved for
// workflow campaigns): everything the repo built so far funnels every
// submission through one Master Agent — the exact bottleneck the DIET
// papers built the multi-MA mesh to avoid. A12 prices the mesh: the same
// open-loop request stream, arriving faster than one MA can serialize
// finding phases but within the federation's capacity, replayed against a
// single MA and against N federated MAs with sticky routing and peer
// forwarding. The single arm saturates — its queue grows for the whole run
// and p99 submit latency is dominated by queueing — while the federation
// keeps up, paying only the forwarding overhead on foreign services.

// FederationAblationConfig tunes the A12 arms.
type FederationAblationConfig struct {
	// MAs is the federated arm's width (default 4).
	MAs int
	// ArrivalRateHz is the stream rate both arms share (default 100).
	ArrivalRateHz float64
}

// FederationAblationResult compares the two arms of the same stream.
type FederationAblationResult struct {
	Config    FederationAblationConfig
	Single    *FederationResult // 1 MA
	Federated *FederationResult // Config.MAs federated MAs
}

// ThroughputGainX is the saturation-throughput multiple of federating:
// federated completed findings per second over the single MA's.
func (r *FederationAblationResult) ThroughputGainX() float64 {
	if s := r.Single.ThroughputPerSec(); s > 0 {
		return r.Federated.ThroughputPerSec() / s
	}
	return 0
}

// P99GainX is how many times higher the single MA's p99 submit latency is
// than the federation's.
func (r *FederationAblationResult) P99GainX() float64 {
	if f := r.Federated.P99LatencyS(); f > 0 {
		return r.Single.P99LatencyS() / f
	}
	return 0
}

// Print writes the A12 stream, both arms and the headline gains.
func (r *FederationAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, " stream: %d requests over %d services at %.0f/s; finding costs %.0fms serial per MA, misses %.0fms, forward RTT %.0fms, %.0f%% of services foreign\n",
		federationRequests, federationServices, r.Federated.Config.ArrivalRateHz,
		float64(federationSubmitCostMS), float64(federationMissCostMS), float64(federationForwardRTTMS), 100.0/federationForeignEvery)
	row := func(name string, a *FederationResult) {
		fmt.Fprintf(w, "  %-18s throughput %6.1f/s  p99 submit latency %8.3fs  mean %7.3fs  span %6.1fs  forwards %d\n",
			name, a.ThroughputPerSec(), a.P99LatencyS(), a.MeanLatencyS(), a.TotalS, a.Forwards)
	}
	row("1 MA", r.Single)
	row(fmt.Sprintf("%d federated MAs", r.Config.MAs), r.Federated)
	fmt.Fprintf(w, "  → federation lifts saturation throughput %.2fx and cuts p99 submit latency %.1fx under the same stream\n",
		r.ThroughputGainX(), r.P99GainX())
}

// RunFederationAblation runs A12: the same submission stream against one MA
// and against cfg.MAs federated MAs.
func RunFederationAblation(cfg FederationAblationConfig) (*FederationAblationResult, error) {
	if cfg.MAs <= 0 {
		cfg.MAs = 4
	}
	if cfg.MAs < 2 {
		return nil, fmt.Errorf("simgrid: federation ablation needs a federated arm of >= 2 MAs")
	}
	out := &FederationAblationResult{Config: cfg}
	var err error

	if out.Single, err = RunFederation(FederationConfig{MAs: 1, ArrivalRateHz: cfg.ArrivalRateHz}); err != nil {
		return nil, fmt.Errorf("simgrid: federation ablation single arm: %w", err)
	}
	if out.Federated, err = RunFederation(FederationConfig{MAs: cfg.MAs, ArrivalRateHz: cfg.ArrivalRateHz}); err != nil {
		return nil, fmt.Errorf("simgrid: federation ablation federated arm: %w", err)
	}
	return out, nil
}
