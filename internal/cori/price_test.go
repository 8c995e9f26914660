package cori

import (
	"math"
	"testing"
	"time"
)

func TestPriceSolve(t *testing.T) {
	// trained returns a monitor holding a 100 s model of "svc" (no work
	// spread, so the EWMA answers every work size), aged by age.
	trained := func(age time.Duration) *Monitor {
		clock, advance := fixedClock(time.Unix(0, 0))
		m := NewMonitor(Config{HalfLife: time.Hour, Now: clock})
		for i := 0; i < 5; i++ {
			m.Observe(Sample{Service: "svc", WorkGFlops: 4500, Duration: 100 * time.Second})
		}
		advance(age)
		return m
	}
	cases := []struct {
		name        string
		m           *Monitor
		service     string
		work, power float64
		wantS       float64
		wantByModel bool
	}{
		{"nil monitor", nil, "svc", 1000, 50, 20, false},
		{"zero power counts as 1", nil, "svc", 1000, 0, 1000, false},
		{"negative power counts as 1", nil, "svc", 1000, -5, 1000, false},
		{"cold model", trained(0), "other", 1000, 50, 20, false},
		// Five half-lives: confidence 1/32, below the 0.05 floor.
		{"stale model below the floor", trained(5 * time.Hour), "svc", 1000, 50, 20, false},
		// Four half-lives: confidence 1/16, still trusted.
		{"aged model above the floor", trained(4 * time.Hour), "svc", 1000, 50, 100, true},
		{"trusted model", trained(0), "svc", 1000, 50, 100, true},
		{"trusted model ignores power", trained(0), "svc", 1000, 0, 100, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sec, byModel := PriceSolve(c.m, c.service, c.work, c.power)
			if math.Abs(sec-c.wantS) > 1e-9 || byModel != c.wantByModel {
				t.Fatalf("PriceSolve = (%v, %v), want (%v, %v)", sec, byModel, c.wantS, c.wantByModel)
			}
		})
	}
}

func TestPriceInput(t *testing.T) {
	// trained returns a monitor whose a↔dst link runs at 10 MB/s and b↔dst
	// at 100 MB/s, aged by age.
	trained := func(age time.Duration) *TransferMonitor {
		clock, advance := fixedClock(time.Unix(0, 0))
		tm := NewTransferMonitor(Config{HalfLife: time.Hour, Now: clock})
		for i := 0; i < 3; i++ {
			tm.Observe(TransferSample{From: "a", To: "dst", SizeMB: 100, Duration: 10 * time.Second})
			tm.Observe(TransferSample{From: "b", To: "dst", SizeMB: 100, Duration: time.Second})
		}
		advance(age)
		return tm
	}
	const sizeMB, fallbackMBps = 100, 50 // fallback pull: 2 s
	cases := []struct {
		name    string
		tm      *TransferMonitor
		holders []string
		want    float64
	}{
		{"nil monitor", nil, []string{"a", "b"}, 2},
		{"untrained pair", trained(0), []string{"c"}, 2},
		{"stale pair below the floor", trained(5 * time.Hour), []string{"b"}, 2},
		{"trusted pair", trained(0), []string{"b"}, 1},
		// A trusted slow link overrides the optimistic fallback.
		{"trusted slow pair", trained(0), []string{"a"}, 10},
		{"cheapest of several holders", trained(0), []string{"a", "b", "c"}, 1},
		{"no holders", trained(0), nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.tm.PriceInput(c.holders, "dst", sizeMB, fallbackMBps); math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("PriceInput(%v) = %v, want %v", c.holders, got, c.want)
			}
		})
	}
}
