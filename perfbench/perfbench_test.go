package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diet"
	"repro/internal/services"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]time.Duration, 1000) // 1..1000 ms in scrambled order
	for i := range xs {
		xs[i] = time.Duration(i*7919%1000+1) * time.Millisecond
	}
	if got := samplesBeyond(len(xs), 99); got != 10 {
		t.Errorf("samplesBeyond(1000, 99) = %d, want 10", got)
	}
	p99, err := tailPercentile(xs, 99)
	if err != nil || p99 != 990 {
		t.Errorf("p99 of 1..1000 ms = %v, %v; want 990", p99, err)
	}
	if p50 := percentile(xs, 50); p50 != 500 {
		t.Errorf("p50 of 1..1000 ms = %v, want 500", p50)
	}
	if _, err := tailPercentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if p90, err := tailPercentile(xs[:100], 90); err != nil || p90 != 90 {
		t.Errorf("p90 of 1..100 ms = %v, %v; want 90", p90, err)
	}
}

func newTestPlatform(t *testing.T, svcs serviceSet) (*platform, string) {
	t.Helper()
	dir := t.TempDir()
	surveys, err := newSurveyInputs(1, filepath.Join(dir, "reference"))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPlatform(surveys, svcs, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.close)
	return pl, dir
}

// declared is a metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metrics BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, perLayer []declared) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// checkReported expects exactly the declared metrics, each in its declared
// unit with a positive value.
func checkReported(t *testing.T, kind string, want []declared, reported metricSet) {
	t.Helper()
	got := make(map[string]namedMetric)
	for _, m := range reported {
		got[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%d %s metrics reported, %d declared", len(got), kind, len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not reported", kind, d.Name)
		case m.unit != d.Unit:
			t.Errorf("%s reported in %s, declared in %s", d.Name, m.unit, d.Unit)
		case !(m.value > 0) || math.IsInf(m.value, 0):
			t.Errorf("%s = %v, want a positive number", d.Name, m.value)
		}
	}
}

// TestSmokeWorkloads makes an untraced run of each workload at a second
// seed, with a one-second window, and expects zero failed operations and
// every declared end-to-end metric.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("a run of each workload takes about a minute")
	}
	e2e, _ := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				workload: w.name, clients: w.clients, seed: 2, window: time.Second,
				out: t.TempDir(),
			}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.attempted == 0 || res.failed != 0 {
				t.Errorf("correct=%v, %d of %d operations failed", res.correct, res.failed, res.attempted)
			}
			checkReported(t, "end-to-end", e2e, res.e2e)
		})
	}
}

// TestCorruptedReplyCountsAsFailed makes every tenth no-op reply carry a
// wrong value, on both the direct and the gateway path, and expects each
// one counted as a failed operation and the run marked incorrect.
func TestCorruptedReplyCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live platform for several seconds")
	}
	svcs := benchServices()
	honest := svcs.noop
	var replies, corrupted atomic.Int64
	svcs.noop = func(p *diet.Profile) error {
		if err := honest(p); err != nil {
			return err
		}
		if replies.Add(1)%10 != 0 {
			return nil
		}
		corrupted.Add(1)
		v, err := p.ScalarInt(1)
		if err != nil {
			return err
		}
		return p.SetScalarInt(1, v+1, diet.Volatile)
	}
	pl, _ := newTestPlatform(t, svcs)
	before := corrupted.Load() // readiness calls must not have hit one
	res := &smallPhase{pl: pl, seed: 1}
	if err := res.round(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("%d readiness replies were corrupted", before)
	}
	if got, want := res.wrong.Load(), corrupted.Load(); got != want || want == 0 {
		t.Errorf("%d wrong outputs counted, %d replies corrupted", got, want)
	}
	if res.errored.Load() != 0 {
		t.Errorf("%d calls errored", res.errored.Load())
	}
	r := &result{correct: true}
	r.count(&res.tally)
	if r.correct || r.failed != corrupted.Load() {
		t.Errorf("run verdict correct=%v failed=%d after %d corrupted replies", r.correct, r.failed, corrupted.Load())
	}
}

// TestZoomErrorCodeCountsAsFailed makes every zoom reply carry error code
// 3 and expects the campaign counted as a wrong output and the run marked
// incorrect.
func TestZoomErrorCodeCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign on a live platform")
	}
	svcs := benchServices()
	svcs.zoom2 = func(dir string) diet.SolveFunc {
		honest := services.SolveZoom2(dir)
		return func(p *diet.Profile) error {
			if err := honest(p); err != nil {
				return err
			}
			return p.SetScalarInt(8, 3, diet.Volatile) // the error code argument
		}
	}
	pl, dir := newTestPlatform(t, svcs)
	c := &campaignPhase{pl: pl, workDir: dir}
	if err := c.round(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c.attempted.Load() != 1 || c.wrong.Load() != 1 || c.errored.Load() != 0 {
		t.Errorf("%d campaigns attempted, %d wrong, %d errored; want 1, 1, 0",
			c.attempted.Load(), c.wrong.Load(), c.errored.Load())
	}
	r := &result{correct: true}
	r.count(&c.tally)
	if r.correct || r.failed != 1 {
		t.Errorf("run verdict correct=%v failed=%d after a failed campaign", r.correct, r.failed)
	}
}

// TestTracedRunReportsEveryMetric runs a short traced run and checks its
// output against BENCHMARK.json: every end-to-end and per-layer metric is
// present with its declared unit, the spans file parses, and every span's
// parent was recorded.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("a full traced run takes about a minute")
	}
	e2e, perLayer := benchmarkSpec(t)
	cfg := runConfig{
		workload: "concurrent", clients: 2, seed: 3, window: time.Second,
		trace: true, out: t.TempDir(),
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Errorf("correct=%v, %d of %d operations failed", res.correct, res.failed, res.attempted)
	}
	checkReported(t, "end-to-end", e2e, res.e2e)
	checkReported(t, "per-layer", perLayer, res.perLayer)

	f, err := os.Open(filepath.Join(cfg.out, "spans-concurrent-seed3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[uint64]bool{}
	var spans []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Name == "" || s.EndNS < s.StartNS {
			t.Errorf("malformed span %+v", s)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has unrecorded parent %d", s.ID, s.Name, s.Parent)
		}
	}
}
