package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/sim"
)

// spec is one benchmark workload: the simulator workloads it runs, each
// on all four protocols, and how.
type spec struct {
	name   string
	sims   []string // workload.Names entries
	sweep  bool     // one exp.Run over the cells on nproc workers; else one simulation at a time
	refs   int      // measured references per core
	warmup int      // warmup references per core
}

// specs are the benchmark's workloads; README.md says why each is here.
var specs = []spec{
	{name: "apache", sims: []string{"apache4x16p"}, refs: 6000, warmup: 12000},
	{name: "radix", sims: []string{"radix4x16p"}, refs: 6000, warmup: 12000},
	{name: "jbb", sims: []string{"jbb4x16p"}, refs: 6000, warmup: 12000},
	{name: "sweep", sims: []string{"mixed-com", "mixed-sci"}, sweep: true, refs: 6000, warmup: 12000},
}

func specNamed(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// cells returns the simulations of one repetition, in exp.Run's matrix
// order. Only Workload, Protocol, RefsPerCore, WarmupRefs and Seed
// differ from core.DefaultConfig.
func (sp spec) cells(seed uint64) []core.Config {
	var cfgs []core.Config
	for _, wl := range sp.sims {
		for _, p := range core.ProtocolNames {
			cfg := core.DefaultConfig()
			cfg.Workload, cfg.Protocol = wl, p
			cfg.RefsPerCore, cfg.WarmupRefs, cfg.Seed = sp.refs, sp.warmup, seed
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// allRefs is every reference a finished simulation retired, warmup
// included: each phase runs every core to its reference count.
func allRefs(cfg core.Config, res *core.Result) uint64 {
	return res.Refs + uint64(cfg.Tiles*cfg.WarmupRefs)
}

// cellRun is one simulation of a repetition.
type cellRun struct {
	res    *core.Result
	err    error
	events uint64 // kernel events over every phase
	tally  *tally // traced runs only
	// Host time of NewSystem, RunWarmup and RunMeasure. Inside exp.Run
	// only build is known: from the progress callback to OnSystem. The
	// process's CPU time there includes the other workers.
	build, warmup, measure took
}

// repRun is one repetition: every cell of the workload once.
type repRun struct {
	took  took
	cells []cellRun
	ok    bool // every cell passed verify
}

// rep runs every cell once, through the serial path or exp.Run.
func (b *bench) rep(cfgs []core.Config) repRun {
	if b.sp.sweep {
		return b.sweepRep(cfgs)
	}
	return b.serialRep(cfgs)
}

func (b *bench) serialRep(cfgs []core.Config) repRun {
	r := repRun{cells: make([]cellRun, len(cfgs))}
	stop := stopwatch()
	root := b.tr.begin(-1, "rep", b.sp.name, "")
	for i, cfg := range cfgs {
		c := &r.cells[i]
		var s *core.System
		c.build = b.tr.span(root, "build", cfg.Workload, cfg.Protocol, func() { s, c.err = core.NewSystem(cfg) })
		if c.err != nil {
			continue
		}
		c.tally = b.tr.observe(s)
		c.warmup = b.tr.span(root, "warmup", cfg.Workload, cfg.Protocol, func() { c.err = s.RunWarmup() })
		if c.err != nil {
			continue
		}
		c.measure = b.tr.span(root, "measure", cfg.Workload, cfg.Protocol, func() { c.res, c.err = s.RunMeasure() })
		c.events = s.Kernel.EventsRun()
	}
	b.tr.end(root)
	r.took = stop()
	return r
}

func (b *bench) sweepRep(cfgs []core.Config) repRun {
	r := repRun{cells: make([]cellRun, len(cfgs))}
	index := map[[2]string]int{}
	for i, cfg := range cfgs {
		index[[2]string{cfg.Workload, cfg.Protocol}] = i
	}
	builds := make([]func() took, len(cfgs))
	kernels := make([]*sim.Kernel, len(cfgs))
	root := b.tr.begin(-1, "rep", b.sp.name, "")
	// exp.Run serializes both callbacks and makes them on the goroutine
	// that then runs the cell, so they can label its CPU samples.
	progress := func(wl, p string) {
		i := index[[2]string{wl, p}]
		builds[i] = stopwatch()
		b.tr.label(wl, p, "build")
	}
	opt := exp.Options{
		Workloads: b.sp.sims,
		Base:      cfgs[0],
		Workers:   runtime.NumCPU(),
		OnSystem: func(s *core.System) {
			i := index[[2]string{s.Cfg.Workload, s.Cfg.Protocol}]
			r.cells[i].build = builds[i]()
			b.tr.record(root, "build", s.Cfg.Workload, s.Cfg.Protocol, time.Now().Add(-r.cells[i].build.wall))
			b.tr.label(s.Cfg.Workload, s.Cfg.Protocol, "run")
			r.cells[i].tally = b.tr.observe(s)
			kernels[i] = s.Kernel
		},
	}
	var m *exp.Matrix
	var err error
	r.took = b.tr.span(root, "exp.Run", b.sp.name, "", func() { m, err = exp.Run(opt, progress) })
	b.tr.end(root)
	for i, cfg := range cfgs {
		c := &r.cells[i]
		if err != nil {
			c.err = err
			continue
		}
		c.res = m.Results[cfg.Workload][cfg.Protocol]
		c.events = kernels[i].EventsRun()
	}
	return r
}

// checkedRun is a cell's untimed reference run: the shadow SWMR checker
// and the stall watchdog on (Config.Check), the kernel profile on for
// the queue depth, and the engine's invariants checked at the end.
type checkedRun struct {
	fp    fingerprint
	depth float64 // mean pending events at dispatch, over every phase
	exact exact
}

// stallBound is the checked runs' watchdog bound, core's default.
const stallBound sim.Time = 500_000

func runChecked(cfg core.Config, bound sim.Time) (cr checkedRun, err error) {
	cfg.Check, cfg.Profile, cfg.StallBound = true, true, bound
	s, err := core.NewSystem(cfg)
	if err != nil {
		return cr, err
	}
	// The watchdog's ticks are kernel events an unchecked run does not
	// have. Rebuild it with the same interval and probe, counting the
	// probes, so they can be taken out of the event count.
	probes := 0
	probe := proto.StallProbe(s.Engine, s.Kernel, bound)
	s.Dog = sim.NewWatchdog(s.Kernel, bound/4, func() string { probes++; return probe() })
	if err := s.RunWarmup(); err != nil {
		return cr, err
	}
	before := probes
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s/%s: invariant violated: %v", cfg.Workload, cfg.Protocol, p)
		}
	}()
	res, err := s.RunMeasure()
	if err != nil {
		return cr, err
	}
	s.CheckInvariants()
	// Each measured-phase probe is one tick, and the tick pending when
	// the phase disarms the watchdog runs once while the queue drains.
	events := res.Events - uint64(probes-before+1)
	cr.fp = fingerprintOf(res, events)
	cr.depth = res.Prof.Kernel.QueueDepth.Mean()
	cr.exact = exactOf(res, events)
	return cr, nil
}

// checkedRuns runs every cell's checked run on up to workers goroutines.
func checkedRuns(cfgs []core.Config, workers int) ([]checkedRun, []error) {
	crs := make([]checkedRun, len(cfgs))
	errs := make([]error, len(cfgs))
	each(len(cfgs), workers, func(i int) { crs[i], errs[i] = runChecked(cfgs[i], stallBound) })
	return crs, errs
}

// each calls fn(0..n-1) on up to workers goroutines and returns when
// every call has.
func each(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// verify reports why a timed cell failed, or "" when it retired every
// reference and matches its checked run bit for bit. A cell whose
// checked run failed (checkErr) cannot be verified, so it fails too.
func verify(cfg core.Config, c cellRun, want fingerprint, checkErr error) string {
	switch {
	case c.err != nil:
		return c.err.Error()
	case checkErr != nil:
		return "unverified: its checked run failed"
	case c.res.Refs < uint64(cfg.Tiles*cfg.RefsPerCore):
		return fmt.Sprintf("retired %d of %d references", c.res.Refs, cfg.Tiles*cfg.RefsPerCore)
	case fingerprintOf(c.res, c.res.Events).digest() != want.digest():
		return "fingerprint differs from the checked run"
	}
	return ""
}
