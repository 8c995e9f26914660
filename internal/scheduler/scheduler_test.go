package scheduler

import (
	"testing"
	"testing/quick"
)

func ests(n int) []Estimate {
	out := make([]Estimate, n)
	for i := range out {
		out[i] = Estimate{
			ServerID:         string(rune('A' + i)),
			Service:          "svc",
			Capacity:         1,
			PowerGFlops:      float64(10 + i),
			LastSolveSeconds: -1,
		}
	}
	return out
}

// isPermutation checks that order is a permutation of 0..n-1.
func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

func TestRoundRobinEqualShare(t *testing.T) {
	// The paper's observation: 100 requests over 11 servers give 9 each,
	// one server getting 10.
	rr := NewRoundRobin()
	e := ests(11)
	counts := make(map[string]int)
	for i := 0; i < 100; i++ {
		order := rr.Rank(Request{Service: "svc", Seq: i}, e)
		if !isPermutation(order, 11) {
			t.Fatal("not a permutation")
		}
		counts[e[order[0]].ServerID]++
	}
	tens := 0
	for id, c := range counts {
		switch c {
		case 9:
		case 10:
			tens++
		default:
			t.Errorf("server %s got %d requests, want 9 or 10", id, c)
		}
	}
	if tens != 1 {
		t.Errorf("%d servers got 10 requests, want exactly 1", tens)
	}
}

func TestRoundRobinPerServiceCounters(t *testing.T) {
	rr := NewRoundRobin()
	e := ests(3)
	a := rr.Rank(Request{Service: "one"}, e)
	b := rr.Rank(Request{Service: "two"}, e)
	// A fresh counter for each service: both start at the same server.
	if e[a[0]].ServerID != e[b[0]].ServerID {
		t.Error("per-service counters should start at the same rotation point")
	}
	c := rr.Rank(Request{Service: "one"}, e)
	if e[c[0]].ServerID == e[a[0]].ServerID {
		t.Error("second request of a service must rotate")
	}
}

func TestRandomSeededAndComplete(t *testing.T) {
	e := ests(7)
	r1 := NewRandom(5)
	r2 := NewRandom(5)
	for i := 0; i < 10; i++ {
		a := r1.Rank(Request{}, e)
		b := r2.Rank(Request{}, e)
		if !isPermutation(a, 7) {
			t.Fatal("not a permutation")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed must give same order")
			}
		}
	}
}

func TestMCTPrefersShortQueues(t *testing.T) {
	m := NewMCT()
	e := ests(3)
	e[0].QueueLen = 5
	e[1].QueueLen = 0
	e[2].QueueLen = 2
	order := m.Rank(Request{}, e)
	if e[order[0]].ServerID != "B" {
		t.Errorf("MCT picked %s, want the empty queue B", e[order[0]].ServerID)
	}
}

func TestMCTUsesHistory(t *testing.T) {
	m := NewMCT()
	e := ests(2)
	// A: empty queue but slow history; B: one queued but fast history.
	e[0].LastSolveSeconds = 10000
	e[1].QueueLen = 1
	e[1].LastSolveSeconds = 10
	order := m.Rank(Request{}, e)
	if e[order[0]].ServerID != "B" {
		t.Error("MCT should weigh history: 2×10s beats 1×10000s")
	}
}

func TestPowerAwarePrefersFastServers(t *testing.T) {
	p := NewPowerAware()
	e := ests(3) // powers 10, 11, 12
	order := p.Rank(Request{WorkGFlops: 1000}, e)
	if e[order[0]].ServerID != "C" {
		t.Errorf("PowerAware picked %s, want the fastest C", e[order[0]].ServerID)
	}
}

func TestPowerAwareBalancesLoadAndPower(t *testing.T) {
	p := NewPowerAware()
	e := ests(2)
	e[0].PowerGFlops = 10 // A: slow, idle
	e[1].PowerGFlops = 30 // B: 3x faster, 2 queued
	e[1].QueueLen = 2
	// A: 1×W/10 = W/10; B: 3×W/30 = W/10 → tie broken by ID (A first, stable).
	order := p.Rank(Request{WorkGFlops: 100}, e)
	if e[order[0]].ServerID != "A" {
		t.Errorf("tie should break toward A, got %s", e[order[0]].ServerID)
	}
	e[1].QueueLen = 1
	order = p.Rank(Request{WorkGFlops: 100}, e)
	if e[order[0]].ServerID != "B" {
		t.Errorf("2×W/30 < W/10: want B, got %s", e[order[0]].ServerID)
	}
}

func TestPowerAwareSimulatedCampaign(t *testing.T) {
	// Simulate the paper's 100-request burst over heterogeneous servers:
	// the power-aware policy must hand the fast servers more requests.
	p := NewPowerAware()
	e := ests(4)
	e[0].PowerGFlops = 10
	e[1].PowerGFlops = 10
	e[2].PowerGFlops = 30
	e[3].PowerGFlops = 30
	counts := make(map[string]int)
	for i := 0; i < 80; i++ {
		order := p.Rank(Request{WorkGFlops: 100}, e)
		chosen := order[0]
		counts[e[chosen].ServerID]++
		e[chosen].QueueLen++ // queue grows as in a burst
	}
	if counts["C"] <= counts["A"] || counts["D"] <= counts["B"] {
		t.Errorf("fast servers should get more work: %v", counts)
	}
	// Perfect balance: makespan proportional shares are 10:10:30:30 → 10,10,30,30.
	if counts["C"] != 30 || counts["A"] != 10 {
		t.Logf("shares %v (exact 10/10/30/30 expected for deterministic tie-break)", counts)
	}
}

func TestRankPermutationProperty(t *testing.T) {
	policies := []Policy{NewRoundRobin(), NewRandom(3), NewMCT(), NewPowerAware()}
	f := func(nServers uint8, queueLens []uint8) bool {
		n := int(nServers%12) + 1
		e := ests(n)
		for i := range e {
			if i < len(queueLens) {
				e[i].QueueLen = int(queueLens[i] % 50)
			}
		}
		for _, p := range policies {
			if !isPermutation(p.Rank(Request{Service: "svc"}, e), n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyEstimates(t *testing.T) {
	for _, p := range []Policy{NewRoundRobin(), NewRandom(1), NewMCT(), NewPowerAware()} {
		if got := p.Rank(Request{}, nil); len(got) != 0 {
			t.Errorf("%s: non-empty rank for no servers", p.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"roundrobin": "roundrobin",
		"rr":         "roundrobin",
		"":           "roundrobin",
		"random":     "random",
		"mct":        "mct",
		"poweraware": "poweraware",
		"plugin":     "poweraware",
	} {
		p, err := ByName(name, 1)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("ByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := ByName("nonsense", 1); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestStickyRoute pins the MA indices sticky routing has always produced, so
// a service keeps its home MA across releases and architectures. svc000's
// hash (0xaf75319f) has the top bit set: a signed conversion before the
// modulo would make its index negative on 32-bit platforms.
func TestStickyRoute(t *testing.T) {
	cases := []struct {
		service string
		want    [4]int // n = 1..4
	}{
		{"svc000", [4]int{0, 1, 2, 3}},
		{"svc001", [4]int{0, 0, 0, 0}},
		{"svc002", [4]int{0, 1, 0, 1}},
		{"ramsesZoom1", [4]int{0, 0, 0, 2}},
		{"ramsesZoom2", [4]int{0, 1, 1, 3}},
		{"", [4]int{0, 1, 1, 1}},
	}
	for _, c := range cases {
		for n := 1; n <= 4; n++ {
			if got := StickyRoute(c.service, n); got != c.want[n-1] {
				t.Errorf("StickyRoute(%q, %d) = %d, want %d", c.service, n, got, c.want[n-1])
			}
		}
	}
}
