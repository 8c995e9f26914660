package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/fft"
	"repro/internal/gwproto"
	"repro/internal/halo"
	"repro/internal/naming"
	"repro/internal/ramses"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/services"
)

// layerProbe times calls into one module's public functions from the
// outside: fn runs back to back for at least minIters calls and about dur,
// and the median call is returned. One span covers the whole loop, so
// per-call timings carry no tracing cost.
func layerProbe(tr *tracer, name string, minIters int, dur time.Duration, fn func(i int) error) (time.Duration, error) {
	sp := tr.begin("probe."+name, "", 0)
	defer sp.end()
	var times []time.Duration
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < dur; i++ {
		t0 := time.Now()
		err := fn(i)
		times = append(times, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("%s probe: %w", name, err)
		}
	}
	return time.Duration(percentile(times, 50) * float64(time.Millisecond)), nil
}

// allocProbe reports process-wide allocations per call of fn over n calls.
func allocProbe(n int, fn func(i int) error) (allocs, kb float64, err error) {
	m := startAllocs()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	allocs, kb = m.perOp(n)
	return allocs, kb, nil
}

// probeLayers measures every layer alone against the live platform and
// returns the per-layer metrics that do not come from the phases.
func probeLayers(pl *platform, workDir string, tr *tracer) (metricSet, error) {
	var m metricSet
	if err := probeTransport(pl, tr, &m); err != nil {
		return nil, err
	}
	if err := probeMiddleware(pl, tr, &m); err != nil {
		return nil, err
	}
	if err := probeData(tr, &m); err != nil {
		return nil, err
	}
	if err := probePhysics(pl.surveys.cfgs[0], workDir, tr, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeTransport measures rpc round trips on a benchmark-owned echo object
// over TCP, small and 4 MiB, plus a naming lookup.
func probeTransport(pl *platform, tr *tracer, m *metricSet) error {
	srv := rpc.NewServer()
	srv.Register("bench-echo", func(_ string, body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	small := func(i int) error {
		var got int64
		if err := rpc.Call(addr, "bench-echo", "Echo", int64(i), &got); err != nil {
			return err
		}
		if got != int64(i) {
			return fmt.Errorf("%w: rpc echo %d, sent %d", errWrongOutput, got, i)
		}
		return nil
	}
	d, err := layerProbe(tr, "rpc.call_small", 300, 300*time.Millisecond, small)
	if err != nil {
		return err
	}
	m.add("rpc.call_small_us", "us", us(d))
	allocs, kb, err := allocProbe(200, small)
	if err != nil {
		return err
	}
	m.add("rpc.allocs_per_call", "count", allocs)
	m.add("rpc.alloc_kb_per_call", "KiB", kb)

	payload := make([]byte, 4<<20)
	seed := uint64(len(payload))
	for i := range payload {
		payload[i] = byte(splitmix(&seed))
	}
	d, err = layerProbe(tr, "rpc.call_4mb", 10, 500*time.Millisecond, func(int) error {
		var got []byte
		if err := rpc.Call(addr, "bench-echo", "Echo", payload, &got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("%w: 4 MiB rpc echo differs", errWrongOutput)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.add("rpc.call_4mb_ms", "ms", ms(d))

	nc := &naming.Client{Addr: pl.dep.NamingAddr}
	d, err = layerProbe(tr, "naming.resolve", 300, 300*time.Millisecond, func(int) error {
		e, err := nc.Resolve("SeD1")
		if err == nil && e.Addr != pl.dep.SeDs[0].Addr() {
			err = fmt.Errorf("%w: SeD1 resolved to %q", errWrongOutput, e.Addr)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("naming.resolve_us", "us", us(d))
	return nil
}

// probeMiddleware measures the agent, SeD, scheduler, client, gateway and
// CoRI entry points one at a time.
func probeMiddleware(pl *platform, tr *tracer, m *metricSet) error {
	ma, sed := pl.dep.MA, pl.dep.SeDs[0]
	nSeDs := len(pl.dep.SeDs)
	steps := []struct {
		name, metric, unit string
		min                int
		scale              func(time.Duration) float64
		fn                 func(i int) error
	}{
		{"agent.collect", "diet.agent.collect_ms", "ms", 100, ms, func(int) error {
			if got := len(ma.Collect(svcNoop)); got != nSeDs {
				return fmt.Errorf("%w: collect returned %d estimates", errWrongOutput, got)
			}
			return nil
		}},
		{"agent.submit", "diet.agent.submit_ms", "ms", 100, ms, func(i int) error {
			rep, err := ma.Submit(diet.SubmitRequest{Service: svcNoop, Seq: i})
			if err == nil && len(rep.Servers) != nSeDs {
				err = fmt.Errorf("%w: submit ranked %d servers", errWrongOutput, len(rep.Servers))
			}
			return err
		}},
		{"sed.estimate", "diet.sed.estimate_us", "us", 1000, us, func(int) error {
			if !sed.Estimate(svcNoop).OK {
				return fmt.Errorf("%w: SeD does not offer %s", errWrongOutput, svcNoop)
			}
			return nil
		}},
		{"sed.estimate_for", "diet.sed.estimate_for_us", "us", 1000, us, func(int) error {
			q := diet.EstimateQuery{Service: services.Zoom2Name, DataIDs: pl.nmlIDs}
			if !sed.EstimateFor(q).OK {
				return fmt.Errorf("%w: SeD does not offer %s", errWrongOutput, services.Zoom2Name)
			}
			return nil
		}},
		{"sed.solve", "diet.sed.solve_us", "us", 1000, us, func(i int) error {
			p, err := newNoopProfile(int64(i))
			if err != nil {
				return err
			}
			rep, err := sed.Solve(p)
			if err != nil {
				return err
			}
			return checkEcho(rep.Profile, int64(i))
		}},
		{"gateway.solve", "gateway.solve_ms", "ms", 100, ms, func(i int) error {
			p, err := newNoopProfile(int64(i))
			if err != nil {
				return err
			}
			if _, _, err := pl.gw.Solve(p); err != nil {
				return err
			}
			return checkEcho(p, int64(i))
		}},
		{"gateway.http", "gateway.http_ms", "ms", 100, ms, func(i int) error {
			return gatewayPost(pl.gwURL, int64(i))
		}},
	}
	for _, s := range steps {
		d, err := layerProbe(tr, s.name, s.min, 300*time.Millisecond, s.fn)
		if err != nil {
			return err
		}
		m.add(s.metric, s.unit, s.scale(d))
	}

	ests := ma.Collect(svcNoop)
	policy := scheduler.NewForecastAware()
	d, err := layerProbe(tr, "scheduler.rank", 1000, 200*time.Millisecond, func(i int) error {
		if got := len(policy.Rank(scheduler.Request{Service: svcNoop, Seq: i}, ests)); got != len(ests) {
			return fmt.Errorf("%w: ranked %d of %d", errWrongOutput, got, len(ests))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.add("scheduler.rank_us", "us", us(d))

	allocs, kb, err := allocProbe(200, func(i int) error { return noopCall(pl.clients[0], int64(i)) })
	if err != nil {
		return err
	}
	m.add("diet.client.allocs_per_call", "count", allocs)
	m.add("diet.client.alloc_kb_per_call", "KiB", kb)

	mon := cori.NewMonitor(cori.Config{})
	const observes = 50000
	sp := tr.begin("probe.cori.observe", "", 0)
	t0 := time.Now()
	for i := 0; i < observes; i++ {
		mon.Observe(cori.Sample{
			Service: svcNoop, WorkGFlops: float64(1 + i%7),
			Duration: time.Duration(1+i%13) * time.Millisecond, QueueDepth: i % 3,
		})
	}
	el := time.Since(t0)
	sp.end()
	if _, ok := mon.Model(svcNoop); !ok {
		return fmt.Errorf("%w: CoRI monitor has no model after %d samples", errWrongOutput, observes)
	}
	m.add("cori.observe_ns", "ns", float64(el.Nanoseconds())/observes)
	return nil
}

// gatewayPost makes one raw POST /api/v1/solve of the no-op service and
// checks the echoed argument.
func gatewayPost(base string, v int64) error {
	p, err := newNoopProfile(v)
	if err != nil {
		return err
	}
	req, err := p.WireRequest()
	if err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/api/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway answered HTTP %d", resp.StatusCode)
	}
	var rep gwproto.SolveReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("%w: decoding gateway reply: %v", errWrongOutput, err)
	}
	if err := p.ApplyWireArgs(rep.Args); err != nil {
		return fmt.Errorf("%w: %v", errWrongOutput, err)
	}
	return checkEcho(p, v)
}

// probeData measures a catalog fetch of a namelist-sized item between two
// TCP stores. The replica cap keeps the destination from minting a copy,
// so every fetch moves the bytes.
func probeData(tr *tracer, m *metricSet) error {
	cat := dataman.NewCatalog()
	cat.SetReplicaCap(1)
	for _, node := range []string{"probe-src", "probe-dst"} {
		srv := rpc.NewServer()
		srv.Register(dataman.ObjectName, dataman.NewStore(node).Handler())
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		if err := cat.AddNode(node, addr); err != nil {
			return err
		}
	}
	item := []byte(ramses.NamelistFromConfig(zoomConfig(1)))
	if err := cat.Put("probe/namelist", "probe-src", dataman.Persistent, item); err != nil {
		return err
	}
	d, err := layerProbe(tr, "dataman.fetch", 100, 300*time.Millisecond, func(int) error {
		it, err := cat.FetchTo("probe/namelist", "probe-dst")
		if err == nil && !bytes.Equal(it.Data, item) {
			err = fmt.Errorf("%w: fetched namelist differs", errWrongOutput)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("dataman.fetch_ms", "ms", ms(d))
	return nil
}

// probePhysics times the physics stack at the campaign configuration:
// both RAMSES phases, the halo finder on the survey's final snapshot and a
// 3-D FFT on the survey's mesh.
func probePhysics(cfg ramses.Config, workDir string, tr *tracer, m *metricSet) error {
	dir := filepath.Join(workDir, "probe-ramses")
	var p1 *ramses.Phase1Result
	d, err := layerProbe(tr, "ramses.phase1", 3, 0, func(int) error {
		var err error
		p1, err = ramses.Phase1(cfg, dir)
		if err == nil && len(p1.Catalog.Halos) == 0 {
			err = fmt.Errorf("%w: phase 1 found no halos", errWrongOutput)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("ramses.phase1_ms", "ms", ms(d))

	h := p1.Catalog.Halos[0]
	var tarKB float64
	d, err = layerProbe(tr, "ramses.phase2", 3, 0, func(int) error {
		res, err := ramses.Phase2(cfg, h.Pos, 2, dir)
		if err != nil {
			return err
		}
		st, err := os.Stat(res.TarPath)
		if err != nil {
			return err
		}
		tarKB = float64(st.Size()) / 1024
		return nil
	})
	if err != nil {
		return err
	}
	m.add("ramses.phase2_ms", "ms", ms(d))
	m.add("ramses.tarball_kb", "KiB", tarKB)

	final := p1.Run.FinalSnapshot()
	d, err = layerProbe(tr, "halo.findhalos", 5, 200*time.Millisecond, func(int) error {
		cat, err := halo.FindHalos(final.Parts, final.A, final.Box, cfg.FoF)
		if err == nil && len(cat.Halos) != len(p1.Catalog.Halos) {
			err = fmt.Errorf("%w: %d halos, phase 1 found %d", errWrongOutput, len(cat.Halos), len(p1.Catalog.Halos))
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("halo.findhalos_ms", "ms", ms(d))

	n := cfg.NPart
	g, err := fft.NewGrid3(n)
	if err != nil {
		return err
	}
	seed := uint64(n)
	orig := make([]complex128, len(g.Data))
	for i := range orig {
		orig[i] = complex(float64(splitmix(&seed)>>11)/(1<<53), 0)
	}
	var sum float64
	for _, v := range orig {
		sum += real(v)
	}
	d, err = layerProbe(tr, "fft.forward3", 50, 200*time.Millisecond, func(int) error {
		copy(g.Data, orig)
		if err := fft.Forward3(g); err != nil {
			return err
		}
		// The zero mode is the plain sum of the inputs.
		if cmplx.Abs(g.Data[0]-complex(sum, 0)) > 1e-9*sum {
			return fmt.Errorf("%w: FFT zero mode %v, input sum %v", errWrongOutput, g.Data[0], sum)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.add("fft.forward3_ms", "ms", ms(d))
	cells := float64(n * n * n)
	m.add("fft.forward3_flops", "flop", 5*cells*math.Log2(cells))
	return nil
}
