package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/ramses"
	"repro/internal/services"
	"repro/internal/workflow"
)

// zoomsPerCampaign is the campaign's fan-out: one survey, then this many
// ramsesZoom2 re-simulations of its halos.
const zoomsPerCampaign = 4

// campaignPhase is the zoom-campaign phase: survey → 4 × zoom campaigns
// through the workflow runner. Each survey's namelist is a staged DataID,
// cycling through the platform's namelists, and must reproduce its
// reference catalog exactly.
type campaignPhase struct {
	pl      *platform
	workDir string
	tally
	campaigns int       // campaigns started, which picks the next namelist
	makespans []float64 // seconds, one per successful campaign
	calls     []diet.CallInfo
	findingMS []float64 // summed finding time of each campaign's calls
	refCalls  int       // successful calls that referenced staged data

	fetches0, moved0 int64 // the platform's transfer counters before round 0
}

// campaignOutputs are what one campaign's calls returned, checked after
// its makespan is taken so the checks never count as campaign time.
type campaignOutputs struct {
	mu       sync.Mutex
	catalog  []byte
	tarballs [][]byte
}

// round runs one campaign, so a run makes one per round and surveys each
// namelist rounds/namelistSeeds times; a campaign takes seconds, and this
// phase has no window of its own. campaign_s is the median over these
// campaigns: with one every other round it spread past its bound between
// runs of two zooms in flight.
func (c *campaignPhase) round(r int, _ time.Duration, tr *tracer) error {
	if r == 0 {
		c.fetches0, c.moved0 = c.pl.fetches.Load(), c.pl.movedBytes.Load()
	}
	surveys := c.pl.surveys
	k := c.campaigns % len(surveys.cfgs)
	c.campaigns++
	out := &campaignOutputs{}
	dag, specs, err := buildCampaign(surveys.cfgs[k], c.pl.nmlIDs[k], out)
	if err != nil {
		return err
	}
	sp := tr.begin("workflow.campaign", "", 0)
	var caller workflow.Caller = c.pl.clients[0]
	if tr != nil {
		caller = tracedCaller{c: c.pl.clients[0], parent: sp}
	}
	runner := &workflow.DietRunner{
		Client:      caller,
		MaxParallel: len(c.pl.clients),
		ServiceWork: map[string]float64{services.Zoom1Name: 400, services.Zoom2Name: 2500},
	}
	t0 := time.Now()
	rep, err := runner.Run(dag, specs)
	makespan := time.Since(t0).Seconds()
	sp.end()
	if err == nil {
		err = rep.Err
	}
	if err == nil {
		err = checkCampaign(out, surveys.catalogs[k], c.workDir)
	}
	if !c.record(err) {
		fmt.Fprintf(os.Stderr, "perfbench: campaign %d: %v\n", c.campaigns, err)
		return nil
	}
	c.makespans = append(c.makespans, makespan)
	var finding time.Duration
	for _, info := range rep.Calls {
		c.calls = append(c.calls, *info)
		finding += info.Finding
		c.refCalls++
	}
	c.findingMS = append(c.findingMS, ms(finding))
	return nil
}

func (c *campaignPhase) counts() *tally { return &c.tally }

func (c *campaignPhase) metrics() (e2e, perLayer metricSet, err error) {
	if len(c.makespans) == 0 {
		return nil, nil, fmt.Errorf("no campaign succeeded")
	}
	e2e.add("campaign_s", "s", median(c.makespans))
	var waits []time.Duration
	for _, info := range c.calls {
		waits = append(waits, info.QueueWait)
	}
	fetches := c.pl.fetches.Load() - c.fetches0
	perLayer.add("diet.sed.queue_wait_ms", "ms", percentile(waits, 50))
	perLayer.add("workflow.finding_ms", "ms", median(c.findingMS))
	perLayer.add("dataman.fetches", "count", float64(fetches))
	perLayer.add("dataman.mb_moved", "MiB", float64(c.pl.movedBytes.Load()-c.moved0)/(1<<20))
	perLayer.add("dataman.local_share", "ratio", 1-float64(fetches)/float64(max(c.refCalls, 1)))
	return e2e, perLayer, nil
}

// buildCampaign returns one campaign's DAG. Both stages carry the namelist
// as a platform data reference, so the solving SeD fetches it through the
// catalog (or finds its replica local) instead of receiving it inline. A
// reply that arrived but does not decode — an error code other than 0, a
// malformed or empty catalog — fails its node as a wrong output.
func buildCampaign(cfg ramses.Config, nmlID string, out *campaignOutputs) (*workflow.DAG, map[string]workflow.TaskSpec, error) {
	dag := workflow.New("zoomCampaign")
	specs := make(map[string]workflow.TaskSpec)
	if err := dag.Add("survey", services.Zoom1Name, nil, nil); err != nil {
		return nil, nil, err
	}
	specs["survey"] = workflow.TaskSpec{
		Profile: func(*workflow.TaskContext) (*diet.Profile, error) {
			p, err := services.NewZoom1Profile(cfg)
			if err != nil {
				return nil, err
			}
			return p, p.SetFileRef(0, "namelist.nml", nmlID, diet.Persistent)
		},
		Consume: func(ctx *workflow.TaskContext, p *diet.Profile, _ *diet.CallInfo) error {
			catalog, err := services.Zoom1Result(p)
			if err != nil {
				return fmt.Errorf("%w: %v", errWrongOutput, err)
			}
			if len(catalog.Halos) == 0 {
				return fmt.Errorf("%w: survey of seed %d found no halos", errWrongOutput, cfg.Seed)
			}
			_, raw, _ := p.FileBytes(1) // Zoom1Result just read it
			out.mu.Lock()
			out.catalog = raw
			out.mu.Unlock()
			ctx.SetOutput(catalog)
			return nil
		},
	}
	for i := 0; i < zoomsPerCampaign; i++ {
		id := fmt.Sprintf("zoom_%d", i)
		if err := dag.Add(id, services.Zoom2Name, []string{"survey"}, nil); err != nil {
			return nil, nil, err
		}
		specs[id] = workflow.TaskSpec{
			Profile: func(ctx *workflow.TaskContext) (*diet.Profile, error) {
				v, _ := ctx.DepOutput("survey")
				catalog := v.(*halo.Catalog)
				h := catalog.Halos[i%len(catalog.Halos)]
				n := float64(cfg.NPart)
				p, err := services.NewZoom2Profile(cfg, int(h.Pos[0]*n), int(h.Pos[1]*n), int(h.Pos[2]*n), 2)
				if err != nil {
					return nil, err
				}
				return p, p.SetFileRef(0, "namelist.nml", nmlID, diet.Persistent)
			},
			Consume: func(_ *workflow.TaskContext, p *diet.Profile, _ *diet.CallInfo) error {
				_, tarball, err := services.Zoom2Result(p)
				if err != nil {
					return fmt.Errorf("%w: %v", errWrongOutput, err)
				}
				out.mu.Lock()
				out.tarballs = append(out.tarballs, tarball)
				out.mu.Unlock()
				return nil
			},
		}
	}
	return dag, specs, nil
}

// checkCampaign checks a finished campaign: the survey catalog is the
// reference catalog of its namelist, byte for byte, and every zoom
// returned a tarball whose index lists files. (A zoom error code other
// than 0 has already failed its node as a wrong output.)
func checkCampaign(out *campaignOutputs, want []byte, workDir string) error {
	if !bytes.Equal(out.catalog, want) {
		return fmt.Errorf("%w: survey catalog differs from the reference run of its namelist", errWrongOutput)
	}
	if len(out.tarballs) != zoomsPerCampaign {
		return fmt.Errorf("%w: %d tarballs, want %d", errWrongOutput, len(out.tarballs), zoomsPerCampaign)
	}
	path := filepath.Join(workDir, "check.tar.gz")
	for _, tb := range out.tarballs {
		if err := os.WriteFile(path, tb, 0o644); err != nil {
			return err
		}
		index, err := ramses.ReadTarballIndex(path)
		if err != nil || len(index) == 0 {
			return fmt.Errorf("%w: tarball index %v (%v)", errWrongOutput, index, err)
		}
	}
	return nil
}

// tracedCaller wraps the client the workflow runner calls through, so each
// node's call and each pricing lookup becomes a span under the campaign.
type tracedCaller struct {
	c      *diet.Client
	parent *span
}

func (t tracedCaller) Call(p *diet.Profile, opts ...diet.CallOption) (*diet.CallInfo, error) {
	sp := t.parent.t.begin("workflow.node."+p.Service, "", t.parent.ID())
	t0 := time.Now()
	info, err := t.c.Call(p, opts...)
	if info != nil {
		sp.setRequest(info.RequestID)
		sp.child("diet.client.finding", t0, t0.Add(info.Finding))
	}
	sp.end()
	return info, err
}

func (t tracedCaller) FindServers(service string, workGFlops float64) (*diet.SubmitReply, time.Duration, error) {
	sp := t.parent.t.begin("workflow.price."+service, "", t.parent.ID())
	defer sp.end()
	return t.c.FindServers(service, workGFlops)
}
