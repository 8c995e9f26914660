package ramses

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/amr"
	"repro/internal/cosmo"
	"repro/internal/grafic"
	"repro/internal/halo"
	"repro/internal/nbody"
	"repro/internal/particles"
)

// Config collects everything one RAMSES run needs. It is the in-memory
// equivalent of the namelist file the paper's client ships to the service.
type Config struct {
	Cosmo          *cosmo.Params
	Box            float64     // comoving box size, Mpc/h
	NPart          int         // particles per axis (the paper's "resolution")
	Ng             int         // PM mesh per axis; 0 means NPart
	Seed           int64       // white-noise seed
	Astart         float64     // starting expansion factor
	Aout           []float64   // output epochs, strictly increasing, > Astart
	StepsPerOutput int         // leapfrog steps between consecutive outputs
	NCPU           int         // MPI ranks; <=1 runs the serial solver
	ZoomCenter     [3]float64  // centre of the nested boxes, top-box units
	ZoomLevels     int         // total nested levels; <=1 is a standard run
	AMR            amr.Params  // refinement policy for per-output tree stats
	FoF            halo.Params // HaloMaker configuration for post-processing
}

// DefaultConfig returns a small but representative configuration.
func DefaultConfig() Config {
	return Config{
		Cosmo:          cosmo.WMAP3(),
		Box:            100, // the paper's 100 Mpc/h survey box
		NPart:          32,
		Seed:           42,
		Astart:         0.05,
		Aout:           []float64{0.3, 0.6, 1.0},
		StepsPerOutput: 8,
		NCPU:           1,
		ZoomLevels:     1,
		AMR:            amr.DefaultParams(),
		FoF:            halo.DefaultParams(),
	}
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Cosmo == nil {
		return fmt.Errorf("ramses: config needs a cosmology")
	}
	if err := c.Cosmo.Validate(); err != nil {
		return err
	}
	if c.Box <= 0 {
		return fmt.Errorf("ramses: box size must be positive, got %g", c.Box)
	}
	if c.NPart < 2 || c.NPart&(c.NPart-1) != 0 {
		return fmt.Errorf("ramses: NPart must be a power of two >= 2, got %d", c.NPart)
	}
	if c.Ng != 0 && (c.Ng < 2 || c.Ng&(c.Ng-1) != 0) {
		return fmt.Errorf("ramses: Ng must be a power of two >= 2, got %d", c.Ng)
	}
	if c.Astart <= 0 || c.Astart >= 1 {
		return fmt.Errorf("ramses: Astart must be in (0,1), got %g", c.Astart)
	}
	if len(c.Aout) == 0 {
		return fmt.Errorf("ramses: at least one output epoch required")
	}
	prev := c.Astart
	for i, a := range c.Aout {
		if a <= prev {
			return fmt.Errorf("ramses: Aout[%d]=%g must exceed %g", i, a, prev)
		}
		if a > 1 {
			return fmt.Errorf("ramses: Aout[%d]=%g beyond a=1", i, a)
		}
		prev = a
	}
	if c.StepsPerOutput < 1 {
		return fmt.Errorf("ramses: StepsPerOutput must be >= 1, got %d", c.StepsPerOutput)
	}
	if c.ZoomLevels < 0 {
		return fmt.Errorf("ramses: ZoomLevels must be >= 0, got %d", c.ZoomLevels)
	}
	if c.FoF.LinkingLength <= 0 || c.FoF.MinParticles < 1 {
		return fmt.Errorf("ramses: invalid FoF parameters %+v", c.FoF)
	}
	return nil
}

// mesh returns the PM mesh size.
func (c *Config) mesh() int {
	if c.Ng > 0 {
		return c.Ng
	}
	return c.NPart
}

// Output is one snapshot produced by a run, with its AMR statistics.
type Output struct {
	Index int
	A     float64
	Path  string // empty when the run kept snapshots in memory only
	Snap  *Snapshot
	Tree  amr.Stats
}

// Result is a completed RAMSES run.
type Result struct {
	Config  Config
	Dir     string
	Outputs []Output
}

// FinalSnapshot returns the last output's snapshot.
func (r *Result) FinalSnapshot() *Snapshot { return r.Outputs[len(r.Outputs)-1].Snap }

// Run executes a full simulation: initial conditions, time integration with
// snapshots at each requested epoch, and AMR statistics per output. When dir
// is non-empty, snapshots are also written there in the output_NNNNN layout.
func Run(cfg Config, dir string) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := grafic.New(cfg.Cosmo, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var ics *grafic.ICs
	if cfg.ZoomLevels > 1 {
		ics, err = gen.MultiLevel(cfg.NPart, cfg.Box, cfg.Astart, cfg.ZoomCenter, cfg.ZoomLevels)
	} else {
		ics, err = gen.SingleLevel(cfg.NPart, cfg.Box, cfg.Astart)
	}
	if err != nil {
		return nil, fmt.Errorf("ramses: generating initial conditions: %w", err)
	}
	return RunFromICs(cfg, ics.Parts, dir)
}

// RunFromICs runs the time integration from an existing particle set (e.g.
// initial conditions generated separately, as in the Figure 4 workflow).
func RunFromICs(cfg Config, parts particles.Set, dir string) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Dir: dir}
	nb := nbody.Params{Ng: cfg.mesh(), Box: cfg.Box, Cosmo: cfg.Cosmo}

	var solver *nbody.Solver
	if cfg.NCPU <= 1 {
		var err error
		solver, err = nbody.New(nb)
		if err != nil {
			return nil, err
		}
	}

	current := parts.Clone()
	a := cfg.Astart
	for i, aout := range cfg.Aout {
		if cfg.NCPU <= 1 {
			if err := solver.Run(current, a, aout, cfg.StepsPerOutput, nil); err != nil {
				return nil, err
			}
		} else {
			evolved, err := nbody.SimulateParallel(cfg.NCPU, nb, current, a, aout, cfg.StepsPerOutput)
			if err != nil {
				return nil, err
			}
			current = evolved
		}
		a = aout
		snap := &Snapshot{A: aout, Box: cfg.Box, Parts: current.Clone()}
		snap.Parts.SortByID()
		tree, err := amr.Build(snap.Parts, cfg.AMR)
		if err != nil {
			return nil, err
		}
		out := Output{Index: i + 1, A: aout, Snap: snap, Tree: tree.Stats()}
		if dir != "" {
			path, err := SaveSnapshot(dir, i+1, snap)
			if err != nil {
				return nil, fmt.Errorf("ramses: writing output %d: %w", i+1, err)
			}
			out.Path = path
		}
		res.Outputs = append(res.Outputs, out)
	}
	return res, nil
}

// ProjectedDensity returns the surface-density map of a snapshot along the
// given axis on an n×n grid, normalised to mean 1 (Figure 2's quantity).
func ProjectedDensity(s *Snapshot, c *cosmo.Params, n, axis int) ([]float64, error) {
	solver, err := nbody.New(nbody.Params{Ng: n, Box: s.Box, Cosmo: c})
	if err != nil {
		return nil, err
	}
	return solver.ProjectDensity(s.Parts, axis)
}

// RenderASCII renders a density map as a log-scaled ASCII picture, n columns
// wide — enough to eyeball Figure 2's time sequence in a terminal.
func RenderASCII(m []float64, n int) string {
	const ramp = " .:-=+*#%@"
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m {
		lv := math.Log10(v + 1e-3)
		if lv < lo {
			lo = lv
		}
		if lv > hi {
			hi = lv
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	var b strings.Builder
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			lv := math.Log10(m[iy*n+ix] + 1e-3)
			k := int((lv - lo) / (hi - lo) * float64(len(ramp)-1))
			if k < 0 {
				k = 0
			}
			if k >= len(ramp) {
				k = len(ramp) - 1
			}
			b.WriteByte(ramp[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConfigFromNamelist builds a Config from a parsed RAMSES-style namelist.
// Recognised groups/keys (all optional, falling back to DefaultConfig):
//
//	&RUN_PARAMS    ncpu, nsteps
//	&AMR_PARAMS    levelmin (NPart = 2^levelmin), levelmax, m_refine
//	&INIT_PARAMS   aexp_ini, seed, cx, cy, cz, nlevels
//	&OUTPUT_PARAMS aout (list)
//	&COSMO_PARAMS  omega_m, omega_l, omega_b, h0 (km/s/Mpc), sigma8, n_s, boxlen (Mpc/h)
func ConfigFromNamelist(nl *Namelist) (Config, error) {
	cfg := DefaultConfig()
	if nl.Has("cosmo_params", "omega_m") {
		c := *cfg.Cosmo
		read := func(key string, dst *float64) error {
			if !nl.Has("cosmo_params", key) {
				return nil
			}
			v, err := nl.Float("cosmo_params", key)
			if err != nil {
				return err
			}
			*dst = v
			return nil
		}
		if err := read("omega_m", &c.OmegaM); err != nil {
			return cfg, err
		}
		if err := read("omega_l", &c.OmegaL); err != nil {
			return cfg, err
		}
		if err := read("omega_b", &c.OmegaB); err != nil {
			return cfg, err
		}
		if err := read("sigma8", &c.Sigma8); err != nil {
			return cfg, err
		}
		if err := read("n_s", &c.Ns); err != nil {
			return cfg, err
		}
		if nl.Has("cosmo_params", "h0") {
			h0, err := nl.Float("cosmo_params", "h0")
			if err != nil {
				return cfg, err
			}
			c.H = h0 / 100
		}
		cfg.Cosmo = &c
	}
	if nl.Has("cosmo_params", "boxlen") {
		v, err := nl.Float("cosmo_params", "boxlen")
		if err != nil {
			return cfg, err
		}
		cfg.Box = v
	}
	if nl.Has("amr_params", "levelmin") {
		lv, err := nl.Int("amr_params", "levelmin")
		if err != nil {
			return cfg, err
		}
		if lv < 1 || lv > 10 {
			return cfg, fmt.Errorf("ramses: levelmin %d out of supported range [1,10]", lv)
		}
		cfg.NPart = 1 << uint(lv)
	}
	if nl.Has("amr_params", "levelmax") {
		lv, err := nl.Int("amr_params", "levelmax")
		if err != nil {
			return cfg, err
		}
		cfg.AMR.MaxLevel = lv
	}
	if nl.Has("amr_params", "m_refine") {
		m, err := nl.Int("amr_params", "m_refine")
		if err != nil {
			return cfg, err
		}
		cfg.AMR.MRefine = m
	}
	if nl.Has("run_params", "ncpu") {
		v, err := nl.Int("run_params", "ncpu")
		if err != nil {
			return cfg, err
		}
		cfg.NCPU = v
	}
	if nl.Has("run_params", "nsteps") {
		v, err := nl.Int("run_params", "nsteps")
		if err != nil {
			return cfg, err
		}
		cfg.StepsPerOutput = v
	}
	if nl.Has("init_params", "aexp_ini") {
		v, err := nl.Float("init_params", "aexp_ini")
		if err != nil {
			return cfg, err
		}
		cfg.Astart = v
	}
	if nl.Has("init_params", "seed") {
		// ParseInt, not nl.Int: a 63-bit seed must round-trip on 32-bit
		// platforms too.
		s, err := nl.String("init_params", "seed")
		if err != nil {
			return cfg, err
		}
		if cfg.Seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			return cfg, fmt.Errorf("ramses: init_params/seed: %w", err)
		}
	}
	for d, key := range []string{"cx", "cy", "cz"} {
		if nl.Has("init_params", key) {
			v, err := nl.Float("init_params", key)
			if err != nil {
				return cfg, err
			}
			cfg.ZoomCenter[d] = v
		}
	}
	if nl.Has("init_params", "nlevels") {
		v, err := nl.Int("init_params", "nlevels")
		if err != nil {
			return cfg, err
		}
		cfg.ZoomLevels = v
	}
	if nl.Has("output_params", "aout") {
		v, err := nl.Floats("output_params", "aout")
		if err != nil {
			return cfg, err
		}
		cfg.Aout = v
	}
	if nl.Has("fof_params", "b") {
		v, err := nl.Float("fof_params", "b")
		if err != nil {
			return cfg, err
		}
		cfg.FoF.LinkingLength = v
	}
	if nl.Has("fof_params", "minpart") {
		v, err := nl.Int("fof_params", "minpart")
		if err != nil {
			return cfg, err
		}
		cfg.FoF.MinParticles = v
	}
	return cfg, cfg.Validate()
}

// NamelistFromConfig renders cfg as namelist text, the inverse of
// ConfigFromNamelist; the DIET client uses it to produce the <namelist.nml>
// file it ships as the first service argument.
func NamelistFromConfig(cfg Config) string {
	nl := NewNamelist()
	nl.Set("run_params", "ncpu", strconv.Itoa(cfg.NCPU))
	nl.Set("run_params", "nsteps", strconv.Itoa(cfg.StepsPerOutput))
	levelmin := int(math.Round(math.Log2(float64(cfg.NPart))))
	nl.Set("amr_params", "levelmin", strconv.Itoa(levelmin))
	nl.Set("amr_params", "levelmax", strconv.Itoa(cfg.AMR.MaxLevel))
	nl.Set("amr_params", "m_refine", strconv.Itoa(cfg.AMR.MRefine))
	nl.Set("init_params", "aexp_ini", fmt.Sprintf("%g", cfg.Astart))
	nl.Set("init_params", "seed", strconv.FormatInt(cfg.Seed, 10))
	nl.Set("init_params", "cx", fmt.Sprintf("%g", cfg.ZoomCenter[0]))
	nl.Set("init_params", "cy", fmt.Sprintf("%g", cfg.ZoomCenter[1]))
	nl.Set("init_params", "cz", fmt.Sprintf("%g", cfg.ZoomCenter[2]))
	nl.Set("init_params", "nlevels", strconv.Itoa(cfg.ZoomLevels))
	aout := make([]string, len(cfg.Aout))
	for i, a := range cfg.Aout {
		aout[i] = fmt.Sprintf("%g", a)
	}
	nl.Set("output_params", "aout", aout...)
	nl.Set("fof_params", "b", fmt.Sprintf("%g", cfg.FoF.LinkingLength))
	nl.Set("fof_params", "minpart", strconv.Itoa(cfg.FoF.MinParticles))
	nl.Set("cosmo_params", "omega_m", fmt.Sprintf("%g", cfg.Cosmo.OmegaM))
	nl.Set("cosmo_params", "omega_l", fmt.Sprintf("%g", cfg.Cosmo.OmegaL))
	nl.Set("cosmo_params", "omega_b", fmt.Sprintf("%g", cfg.Cosmo.OmegaB))
	nl.Set("cosmo_params", "h0", fmt.Sprintf("%g", 100*cfg.Cosmo.H))
	nl.Set("cosmo_params", "sigma8", fmt.Sprintf("%g", cfg.Cosmo.Sigma8))
	nl.Set("cosmo_params", "n_s", fmt.Sprintf("%g", cfg.Cosmo.Ns))
	nl.Set("cosmo_params", "boxlen", fmt.Sprintf("%g", cfg.Box))
	var b strings.Builder
	nl.Write(&b)
	return b.String()
}
