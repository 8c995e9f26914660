package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const tailBeyond = 10

// highestTail returns the highest of the conventional percentiles (p50,
// p90, p99, p99.9) that leaves at least tailBeyond of n samples beyond it,
// or 0 when even the median does not.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if samplesBeyond(n, p) >= tailBeyond {
			best = p
		}
	}
	return best
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples: the
// smallest rank whose share of the samples reaches p. The epsilon absorbs
// float error so that p=99 of 1000 samples is rank 990, not 991.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs in milliseconds.
// It sorts xs in place.
func percentile(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return ms(xs[nearestRank(len(xs), p)-1])
}

// tailPercentile is percentile for a named tail, refusing a tail with fewer
// than tailBeyond samples beyond it: the name would promise more than the
// data holds.
func tailPercentile(xs []time.Duration, p float64) (float64, error) {
	if highest := highestTail(len(xs)); p > highest {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it; p%g is the highest that has", p, len(xs), tailBeyond, highest)
	}
	return percentile(xs, p), nil
}

// tailBlocks is how many consecutive blocks of rounds a tail is taken
// over. A tail rests on its ten slowest samples, so one burst of load from
// outside the benchmark can move it; the median (for two blocks, the mean)
// of the blocks' tails halves a burst confined to one block. More blocks
// would resist a burst better but need proportionally more calls, which
// the serial workload cannot make within a run's time.
const tailBlocks = 2

// blockTail returns the median over tailBlocks consecutive blocks of
// rounds of each block's p-th percentile; every block must carry that
// percentile by itself (see tailPercentile).
func blockTail(perRound [][]time.Duration, p float64) (float64, error) {
	n := len(perRound)
	var tails []float64
	for b := 0; b < tailBlocks; b++ {
		var block []time.Duration
		for _, xs := range perRound[b*n/tailBlocks : (b+1)*n/tailBlocks] {
			block = append(block, xs...)
		}
		t, err := tailPercentile(block, p)
		if err != nil {
			return 0, fmt.Errorf("block %d: %w", b, err)
		}
		tails = append(tails, t)
	}
	return median(tails), nil
}

// roundMedian is the median of the rounds' medians, in milliseconds.
func roundMedian(perRound [][]time.Duration) float64 {
	var medians []float64
	for _, xs := range perRound {
		medians = append(medians, percentile(xs, 50))
	}
	return median(medians)
}

// median of a float slice (sorted in place); the mean of the middle pair
// for even lengths.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. Without
// /proc the run fails rather than report another quantity under the name.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// allocMeter measures process-wide allocations over a loop: every
// goroutine's, so an in-process server's share of a round trip counts.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// perOp returns allocations and KiB allocated per operation since start.
func (a allocMeter) perOp(ops int) (allocs, kb float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := float64(max(ops, 1))
	return float64(m.Mallocs-a.mallocs) / n, float64(m.TotalAlloc-a.bytes) / 1024 / n
}
