package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/gateway"
	"repro/internal/halo"
	"repro/internal/ramses"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/services"
)

// The benchmark's own services, offered by every SeD beside the paper's
// ramsesZoom1/ramsesZoom2.
const (
	svcNoop     = "bench.noop"     // IN scalar → OUT the same scalar
	svcUpload   = "bench.upload"   // IN 4 MiB vector → OUT its CRC-32
	svcDownload = "bench.download" // IN seed → OUT a 4 MiB vector made from it
)

// vectorLen is the element count of a bulk vector: 4 MiB of float64.
const vectorLen = 4 << 20 / 8

// namelistSeeds is how many distinct survey namelists a platform stages.
// Campaigns cycle through them, so surveys repeat within a run.
const namelistSeeds = 3

// serviceSet holds the solve functions every SeD offers; the RAMSES ones
// are made per scratch directory. Tests swap one for a corrupting version
// to prove a wrong reply counts as failed.
type serviceSet struct {
	noop, upload, download diet.SolveFunc
	zoom1, zoom2           func(dir string) diet.SolveFunc
}

func benchServices() serviceSet {
	return serviceSet{
		noop: func(p *diet.Profile) error {
			v, err := p.ScalarInt(0)
			if err != nil {
				return err
			}
			return p.SetScalarInt(1, v, diet.Volatile)
		},
		upload: func(p *diet.Profile) error {
			return p.SetScalarInt(1, int64(crc32.ChecksumIEEE(p.Args[0].Data)), diet.Volatile)
		},
		download: func(p *diet.Profile) error {
			seed, err := p.ScalarInt(0)
			if err != nil {
				return err
			}
			return p.SetVectorDouble(1, genVector(uint64(seed)), diet.Volatile)
		},
		zoom1: services.SolveZoom1,
		zoom2: services.SolveZoom2,
	}
}

// genVector makes the bulk vector for a seed: vectorLen uniform doubles.
func genVector(seed uint64) []float64 {
	v := make([]float64, vectorLen)
	for i := range v {
		v[i] = float64(splitmix(&seed)>>11) / (1 << 53)
	}
	return v
}

// vectorCRC is the CRC-32 of a vector in the profile's wire encoding.
func vectorCRC(v []float64) uint32 {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return crc32.ChecksumIEEE(buf)
}

// splitmix advances a SplitMix64 state; every benchmark input derives from
// the --seed through it.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// derive returns an independent stream seed for one consumer of the run
// seed, so adding a consumer never shifts another's inputs.
func derive(seed int64, stream uint64) uint64 {
	s := uint64(seed) ^ stream*0xd1b54a32d192ed03
	return splitmix(&s)
}

func scalarDesc(name string, in, out diet.ArgKind, inBase, outBase diet.BaseType) (*diet.ProfileDesc, error) {
	d, err := diet.NewProfileDesc(name, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := d.Set(0, in, inBase); err != nil {
		return nil, err
	}
	return d, d.Set(1, out, outBase)
}

// platform is one live deployment over loopback TCP: 1 MA, 2 LAs and 4
// SeDs, an HTTP gateway in front of the MA, and a staging data store the
// campaign namelists are published on.
type platform struct {
	dep     *diet.Deployment
	clients []*diet.Client // one session per closed-loop client of the workload
	gw      *gateway.Gateway
	gwURL   string
	stopGW  func() error
	staging *rpc.Server

	surveys *surveyInputs
	nmlIDs  []string // DataIDs of the staged namelists, as surveys.cfgs

	fetches    atomic.Int64 // transfers the catalog reported
	movedBytes atomic.Int64 // bytes those transfers moved
}

// surveyInputs are the campaigns' seeded inputs: namelistSeeds RAMSES
// configurations and, for each, the halo catalog its survey must return.
type surveyInputs struct {
	cfgs     []ramses.Config
	catalogs [][]byte
}

// maxSurveyCandidates bounds the search for surveys that find halos.
const maxSurveyCandidates = 32

// newSurveyInputs draws RAMSES seeds from the run seed and keeps the first
// namelistSeeds whose survey finds at least one halo: at 16³ particles
// about a quarter of the seeds collapse none, and a campaign without a
// halo has nothing to zoom into. The kept surveys' catalogs, computed here
// by the library directly, are the reference every campaign's survey is
// compared against byte for byte.
func newSurveyInputs(seed int64, dir string) (*surveyInputs, error) {
	in := &surveyInputs{}
	for j := 0; len(in.cfgs) < namelistSeeds; j++ {
		if j == maxSurveyCandidates {
			return nil, fmt.Errorf("only %d of %d survey seeds found halos", len(in.cfgs), maxSurveyCandidates)
		}
		cfg := zoomConfig(int64(derive(seed, stream(streamSurvey, 0, j)) % 1_000_000))
		res, err := ramses.Phase1(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("reference survey: %w", err)
		}
		if len(res.Catalog.Halos) == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := halo.WriteCatalog(&buf, res.Catalog); err != nil {
			return nil, err
		}
		in.cfgs = append(in.cfgs, cfg)
		in.catalogs = append(in.catalogs, buf.Bytes())
	}
	return in, nil
}

// zoomConfig is the campaign's RAMSES configuration at one namelist seed:
// NPart 16, two outputs, the FoF parameters the examples use.
func zoomConfig(seed int64) ramses.Config {
	cfg := ramses.DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 6
	cfg.Seed = seed
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	return cfg
}

// newPlatform deploys the platform with a client session for each of
// clients closed-loop clients, stages the survey namelists and proves both
// call paths answer. workDir receives the RAMSES services' scratch files.
func newPlatform(surveys *surveyInputs, svcs serviceSet, clients int, workDir string) (*platform, error) {
	pl := &platform{surveys: surveys}
	ok := false
	defer func() {
		if !ok {
			pl.close()
		}
	}()

	noop, err := scalarDesc(svcNoop, diet.Scalar, diet.Scalar, diet.Int, diet.Int)
	if err != nil {
		return nil, err
	}
	up, err := scalarDesc(svcUpload, diet.Vector, diet.Scalar, diet.Double, diet.Int)
	if err != nil {
		return nil, err
	}
	down, err := scalarDesc(svcDownload, diet.Scalar, diet.Vector, diet.Int, diet.Double)
	if err != nil {
		return nil, err
	}
	ramsesDir := filepath.Join(workDir, "ramses")
	var seds []diet.SeDSpec
	for i, power := range []float64{40, 50, 60, 70} {
		seds = append(seds, diet.SeDSpec{
			Name: fmt.Sprintf("SeD%d", i+1), Parent: fmt.Sprintf("LA%d", i/2+1),
			Capacity: 1, PowerGFlops: power,
			Services: []diet.ServiceSpec{
				{Desc: noop, Solve: svcs.noop},
				{Desc: up, Solve: svcs.upload},
				{Desc: down, Solve: svcs.download},
				{Desc: services.Zoom1Desc(), Solve: svcs.zoom1(ramsesDir)},
				{Desc: services.Zoom2Desc(), Solve: svcs.zoom2(ramsesDir)},
			},
		})
	}

	catalog := dataman.NewCatalog()
	catalog.AddTransferObserver(func(_, _ string, sizeMB float64, _ time.Duration) {
		pl.fetches.Add(1)
		pl.movedBytes.Add(int64(math.Round(sizeMB * (1 << 20))))
	})
	pl.staging = rpc.NewServer()
	pl.staging.Register(dataman.ObjectName, dataman.NewStore("staging").Handler())
	stagingAddr, err := pl.staging.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting staging store: %w", err)
	}
	if err := catalog.AddNode("staging", stagingAddr); err != nil {
		return nil, err
	}

	pl.dep, err = diet.Deploy(diet.DeploymentSpec{
		MAName: "MA1",
		Policy: scheduler.NewForecastAware(),
		LAs:    []string{"LA1", "LA2"},
		SeDs:   seds,
		Data:   catalog,
	})
	if err != nil {
		return nil, fmt.Errorf("deploying: %w", err)
	}

	for _, cfg := range surveys.cfgs {
		id := fmt.Sprintf("nml/seed=%d", cfg.Seed)
		if err := catalog.Put(id, "staging", dataman.Persistent, []byte(ramses.NamelistFromConfig(cfg))); err != nil {
			return nil, fmt.Errorf("staging namelist: %w", err)
		}
		pl.nmlIDs = append(pl.nmlIDs, id)
	}

	pl.gw, err = gateway.New(gateway.Config{Naming: pl.dep.NamingAddr, MAs: []string{"MA1"}})
	if err != nil {
		return nil, err
	}
	var gwAddr string
	gwAddr, pl.stopGW, err = pl.gw.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pl.gwURL = "http://" + gwAddr

	for i := 0; i < clients; i++ {
		c, err := pl.dep.Client()
		if err != nil {
			return nil, err
		}
		pl.clients = append(pl.clients, c)
	}
	// Readiness: one call down each path, checked like any other.
	for _, opts := range [][]diet.CallOption{nil, {diet.WithGateway(pl.gwURL)}} {
		if err := noopCall(pl.clients[0], 7, opts...); err != nil {
			return nil, fmt.Errorf("readiness call: %w", err)
		}
	}
	ok = true
	return pl, nil
}

func (pl *platform) close() {
	if pl.stopGW != nil {
		_ = pl.stopGW() // shutdown of a loopback listener; nothing to report
	}
	if pl.gw != nil {
		pl.gw.Close()
	}
	if pl.dep != nil {
		pl.dep.Close()
	}
	if pl.staging != nil {
		pl.staging.Close()
	}
}

// noopCall makes one checked no-op call carrying v.
func noopCall(c *diet.Client, v int64, opts ...diet.CallOption) error {
	p, err := newNoopProfile(v)
	if err != nil {
		return err
	}
	if _, err := c.Call(p, opts...); err != nil {
		return err
	}
	return checkEcho(p, v)
}

func newNoopProfile(v int64) (*diet.Profile, error) {
	p, err := diet.NewProfile(svcNoop, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := p.SetScalarInt(0, v, diet.Volatile); err != nil {
		return nil, err
	}
	return p, p.SetScalarInt(1, 0, diet.Volatile)
}

// errWrongOutput marks a call that completed but returned a wrong result.
var errWrongOutput = errors.New("wrong output")

func checkEcho(p *diet.Profile, want int64) error {
	got, err := p.ScalarInt(1)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrongOutput, err)
	}
	if got != want {
		return fmt.Errorf("%w: echo %d, sent %d", errWrongOutput, got, want)
	}
	return nil
}
