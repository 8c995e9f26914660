package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diet"
)

// phaseCap bounds how long one round of a phase may run past its window
// while it still lacks its minimum samples; a platform that cannot deliver
// them in that time fails the run instead of printing a result.
const phaseCap = 30 * time.Second

// tally counts operations. An operation is attempted once and either
// succeeds, fails with an error (dial errors included, never retried by
// the benchmark) or completes with a wrong output.
type tally struct {
	attempted, errored, wrong atomic.Int64
}

func (t *tally) failed() int64 { return t.errored.Load() + t.wrong.Load() }

// record files an operation's outcome and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted.Add(1)
	switch {
	case err == nil:
		return true
	case errors.Is(err, errWrongOutput):
		t.wrong.Add(1)
	default:
		t.errored.Add(1)
	}
	return false
}

// closedLoop runs one worker per client, each issuing its next operation
// only after the previous one returned, until done reports true. It
// returns when every worker has stopped.
func closedLoop(clients int, done func() bool, op func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				op(w)
			}
		}()
	}
	wg.Wait()
}

// window decides when a round has measured enough: at least its length,
// and at least its minimum samples, within phaseCap.
type window struct {
	start  time.Time
	length time.Duration
	enough func() bool
}

func (w window) done() bool {
	el := time.Since(w.start)
	return (el >= w.length && w.enough()) || el >= w.length+phaseCap
}

func (w window) check() error {
	if !w.enough() {
		return fmt.Errorf("too few samples after %v", time.Since(w.start).Round(time.Second))
	}
	return nil
}

// The input streams of each phase; derive(seed, stream(...)) keeps every
// round's and every worker's inputs independent of the others'.
const (
	streamSmall = iota + 1
	streamBulk
	streamSurvey
	streamUpload
	streamDownload
	streamSim
)

func stream(phase, round, index int) uint64 {
	return uint64(phase)<<32 | uint64(round)<<16 | uint64(index)
}

// Minimum successful calls of the call phases in a run: every block of
// rounds (see blockTail) holds enough for the p99 of each small-call path
// and the p90 of each bulk direction to have ten samples beyond them.
const (
	smallMinPerPath = tailBlocks * 1000
	bulkMinPerDir   = tailBlocks * 100
)

// perRound is a round's share of a per-run minimum, rounded up.
func perRound(n int64) int64 { return (n + rounds - 1) / rounds }

// smallPhase is the small-calls phase: every client calls the no-op
// service back to back, each call going direct or through the gateway by
// a seeded coin, and every echo is checked.
type smallPhase struct {
	pl   *platform
	seed int64
	tally
	direct, viaGW [][]time.Duration // successful calls, per round
	infos         []diet.CallInfo   // direct calls' own timing breakdown
	rate          []float64         // successful calls per second, per round
	// byTrace holds a traced run's direct calls, untraced and traced: each
	// client traces every other call, so both sets span the same moments
	// and their ratio is the tracing overhead.
	byTrace [2][]time.Duration
}

func (s *smallPhase) round(r int, length time.Duration, tr *tracer) error {
	var nDirect, nGW atomic.Int64
	var mu sync.Mutex
	var direct, gw []time.Duration
	rngs := make([]uint64, len(s.pl.clients))
	for i := range rngs {
		rngs[i] = derive(s.seed, stream(streamSmall, r, i))
	}
	w := window{start: time.Now(), length: length, enough: func() bool {
		return nDirect.Load() >= perRound(smallMinPerPath) && nGW.Load() >= perRound(smallMinPerPath)
	}}
	calls := make([]int, len(rngs))
	closedLoop(len(rngs), w.done, func(worker int) {
		v := int64(splitmix(&rngs[worker]) >> 1)
		viaGW := splitmix(&rngs[worker])&1 == 1
		calls[worker]++
		ctr, traced := tr, 1
		if calls[worker]%2 == 0 {
			ctr, traced = nil, 0
		}
		name := "diet.client.call"
		var opts []diet.CallOption
		if viaGW {
			name = "gateway.call"
			opts = []diet.CallOption{diet.WithGateway(s.pl.gwURL)}
		}
		p, err := newNoopProfile(v)
		if err != nil {
			s.record(err)
			return
		}
		sp := ctr.begin(name, "", 0)
		t0 := time.Now()
		info, err := s.pl.clients[worker].Call(p, opts...)
		d := time.Since(t0)
		if info != nil {
			sp.setRequest(info.RequestID)
			sp.child("diet.client.finding", t0, t0.Add(info.Finding))
		}
		sp.end()
		if err == nil {
			err = checkEcho(p, v)
		}
		if !s.record(err) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if viaGW {
			gw = append(gw, d)
			nGW.Add(1)
		} else {
			direct = append(direct, d)
			s.infos = append(s.infos, *info)
			nDirect.Add(1)
			if tr != nil {
				s.byTrace[traced] = append(s.byTrace[traced], d)
			}
		}
	})
	elapsed := time.Since(w.start)
	if err := w.check(); err != nil {
		return err
	}
	s.rate = append(s.rate, float64(len(direct)+len(gw))/elapsed.Seconds())
	s.direct = append(s.direct, direct)
	s.viaGW = append(s.viaGW, gw)
	return nil
}

func (s *smallPhase) counts() *tally { return &s.tally }

func (s *smallPhase) metrics() (e2e, perLayer metricSet, err error) {
	e2e.add("calls_per_s", "1/s", median(s.rate))
	for _, path := range []struct {
		prefix string
		rounds [][]time.Duration
	}{{"call", s.direct}, {"gw_call", s.viaGW}} {
		p99, err := blockTail(path.rounds, 99)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path.prefix, err)
		}
		e2e.add(path.prefix+"_p50_ms", "ms", roundMedian(path.rounds))
		e2e.add(path.prefix+"_p99_ms", "ms", p99)
	}

	var finding, latency, total []time.Duration
	for _, info := range s.infos {
		finding = append(finding, info.Finding)
		latency = append(latency, info.Latency)
		total = append(total, info.Total)
	}
	perLayer.add("diet.client.finding_ms", "ms", percentile(finding, 50))
	perLayer.add("diet.client.latency_ms", "ms", percentile(latency, 50))
	perLayer.add("diet.client.total_ms", "ms", percentile(total, 50))
	st := s.pl.gw.Status()
	perLayer.add("gateway.batched_share", "ratio", float64(st.Batched)/float64(max(st.Submitted, 1)))
	return e2e, perLayer, nil
}

// bulkPhase is the bulk-transfer phase: every client uploads 4 MiB
// vectors (the SeD answers their CRC) or download 4 MiB vectors the SeD
// generates from a seed, by a seeded coin, and every checksum is checked.
type bulkPhase struct {
	pl *platform
	in *bulkInputs
	tally
	seed     int64
	up, down [][]time.Duration // successful calls, per round
	rate     []float64         // MiB of payload per second, per round
}

// bulkInputs are the bulk phase's seeded inputs: upload vectors as ready
// profile arguments with their CRCs, and download seeds with the CRCs the
// SeD's vectors must arrive with.
type bulkInputs struct {
	uploads   []diet.Arg
	uploadCRC []uint32
	downSeeds []int64
	downCRC   []uint32
}

// bulkPool is how many distinct vectors each direction cycles through.
const bulkPool = 4

// bulkMiB is the payload one bulk call moves in its useful direction.
const bulkMiB = 4

func newBulkInputs(seed int64) (*bulkInputs, error) {
	in := &bulkInputs{}
	for i := 0; i < bulkPool; i++ {
		v := genVector(derive(seed, stream(streamUpload, 0, i)))
		p, err := diet.NewProfile(svcUpload, 0, 0, 1)
		if err != nil {
			return nil, err
		}
		if err := p.SetVectorDouble(0, v, diet.Volatile); err != nil {
			return nil, err
		}
		in.uploads = append(in.uploads, p.Args[0])
		in.uploadCRC = append(in.uploadCRC, crc32.ChecksumIEEE(p.Args[0].Data))

		s := int64(derive(seed, stream(streamDownload, 0, i)) >> 1)
		in.downSeeds = append(in.downSeeds, s)
		in.downCRC = append(in.downCRC, vectorCRC(genVector(uint64(s))))
	}
	return in, nil
}

func (b *bulkPhase) round(r int, length time.Duration, tr *tracer) error {
	var nUp, nDown atomic.Int64
	var mu sync.Mutex
	var up, down []time.Duration
	rngs := make([]uint64, len(b.pl.clients))
	for i := range rngs {
		rngs[i] = derive(b.seed, stream(streamBulk, r, i))
	}
	w := window{start: time.Now(), length: length, enough: func() bool {
		return nUp.Load() >= perRound(bulkMinPerDir) && nDown.Load() >= perRound(bulkMinPerDir)
	}}
	closedLoop(len(rngs), w.done, func(worker int) {
		x := splitmix(&rngs[worker])
		upload, k := x&1 == 0, int((x>>1)%bulkPool)
		p, err := newBulkProfile(b.in, upload, k)
		if err != nil {
			b.record(err)
			return
		}
		name := "bulk.download"
		if upload {
			name = "bulk.upload"
		}
		sp := tr.begin(name, "", 0)
		t0 := time.Now()
		info, err := b.pl.clients[worker].Call(p)
		d := time.Since(t0)
		if info != nil {
			sp.setRequest(info.RequestID)
			sp.child("diet.client.finding", t0, t0.Add(info.Finding))
		}
		sp.end()
		if err == nil {
			err = checkBulk(p, b.in, upload, k)
		}
		if !b.record(err) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if upload {
			up = append(up, d)
			nUp.Add(1)
		} else {
			down = append(down, d)
			nDown.Add(1)
		}
	})
	elapsed := time.Since(w.start)
	if err := w.check(); err != nil {
		return err
	}
	b.rate = append(b.rate, float64(bulkMiB*(len(up)+len(down)))/elapsed.Seconds())
	b.up = append(b.up, up)
	b.down = append(b.down, down)
	return nil
}

func (b *bulkPhase) counts() *tally { return &b.tally }

func (b *bulkPhase) metrics() (e2e, perLayer metricSet, err error) {
	e2e.add("mb_per_s", "MiB/s", median(b.rate))
	for _, dir := range []struct {
		prefix string
		rounds [][]time.Duration
	}{{"upload", b.up}, {"download", b.down}} {
		p90, err := blockTail(dir.rounds, 90)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", dir.prefix, err)
		}
		e2e.add(dir.prefix+"_p50_ms", "ms", roundMedian(dir.rounds))
		e2e.add(dir.prefix+"_p90_ms", "ms", p90)
	}
	return e2e, nil, nil
}

func newBulkProfile(in *bulkInputs, upload bool, k int) (*diet.Profile, error) {
	if upload {
		p, err := diet.NewProfile(svcUpload, 0, 0, 1)
		if err != nil {
			return nil, err
		}
		p.Args[0] = in.uploads[k] // shares the read-only payload
		return p, p.SetScalarInt(1, 0, diet.Volatile)
	}
	p, err := diet.NewProfile(svcDownload, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := p.SetScalarInt(0, in.downSeeds[k], diet.Volatile); err != nil {
		return nil, err
	}
	return p, p.SetVectorDouble(1, nil, diet.Volatile)
}

func checkBulk(p *diet.Profile, in *bulkInputs, upload bool, k int) error {
	if upload {
		got, err := p.ScalarInt(1)
		if err != nil {
			return fmt.Errorf("%w: %v", errWrongOutput, err)
		}
		if uint32(got) != in.uploadCRC[k] || got>>32 != 0 {
			return fmt.Errorf("%w: upload checksum %#x, sent %#x", errWrongOutput, got, in.uploadCRC[k])
		}
		return nil
	}
	a := p.Args[1]
	if a.Rows != vectorLen || len(a.Data) != 8*vectorLen {
		return fmt.Errorf("%w: download of %d rows, %d bytes", errWrongOutput, a.Rows, len(a.Data))
	}
	if got := crc32.ChecksumIEEE(a.Data); got != in.downCRC[k] {
		return fmt.Errorf("%w: download checksum %#x, want %#x", errWrongOutput, got, in.downCRC[k])
	}
	return nil
}
