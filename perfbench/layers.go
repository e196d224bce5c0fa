package main

import (
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The standalone layer benchmarks time one layer at a time through its
// public constructors, fed from the workload's own configuration and
// reference stream, so a layer's number moves with the workload. Each
// reports the median over its timed passes, in nanoseconds per operation.
const passes = 5

func medianPass(pass func() (time.Duration, int)) float64 {
	ns := make([]float64, passes)
	for i := range ns {
		d, ops := pass()
		ns[i] = float64(d.Nanoseconds()) / float64(ops)
	}
	sort.Float64s(ns)
	return ns[passes/2]
}

// ref is one reference of a generated stream.
type ref struct {
	tile topo.Tile
	addr cache.Addr
}

func noop(any) {}

// generate builds cfg's reference generator as core.NewSystem does and
// draws perTile references per core, round-robin over the tiles. The
// clock advances roundCycles per round, as far as the cores get in a
// run, so copy-on-write breaks become visible as they would there. It
// returns the stream and the host time from NewGenerator to the last
// Next.
func generate(cfg core.Config, perTile int, roundCycles sim.Time) ([]ref, time.Duration, error) {
	w, err := workload.Named(cfg.Workload)
	if err != nil {
		return nil, 0, err
	}
	grid := topo.SquareGrid(cfg.Tiles)
	vmAreas, err := topo.NewAreas(grid, len(w.VMs))
	if err != nil {
		return nil, 0, err
	}
	placement := topo.MatchedPlacement(vmAreas)
	k := sim.NewKernel(cfg.Seed)
	memctrl.Default(grid, k.Rand().Fork()) // keeps NewSystem's fork order, so the stream is the run's
	refs := make([]ref, 0, perTile*cfg.Tiles)
	start := time.Now()
	mapper := memctrl.NewMapper(cfg.Dedup)
	gen := workload.NewGenerator(w, placement, mapper, k.Rand().Fork())
	mapper.SetCoWDelay(cfg.Net.HopLatency())
	gen.SetLanes(make([]int, cfg.Tiles), []*sim.Kernel{k})
	for i := 0; i < perTile; i++ {
		for t := 0; t < cfg.Tiles; t++ {
			refs = append(refs, ref{topo.Tile(t), gen.Next(topo.Tile(t)).Addr})
		}
		k.AfterArg(roundCycles, noop, nil)
		k.Step()
	}
	return refs, time.Since(start), nil
}

// nextNS is workload.next_ns: NewGenerator plus one Next per reference
// of a run, per reference.
func nextNS(cfg core.Config, perTile int, roundCycles sim.Time) (float64, []ref, error) {
	var refs []ref
	var err error
	ns := medianPass(func() (time.Duration, int) {
		var d time.Duration
		refs, d, err = generate(cfg, perTile, roundCycles)
		return d, max(len(refs), 1)
	})
	return ns, refs, err
}

// lookupNS is cache.lookup_ns: one L1 per tile at the configured
// geometry, replaying the stream with a Lookup per reference and a
// Victim plus Fill per miss. The caches are warmed by one untimed pass.
func lookupNS(cfg core.Config, refs []ref) float64 {
	l1 := make([]*cache.Cache, cfg.Tiles)
	for t := range l1 {
		l1[t] = cache.New("L1", cfg.Proto.L1Sets, cfg.Proto.L1Ways)
	}
	replay := func() (time.Duration, int) {
		start := time.Now()
		for _, r := range refs {
			c := l1[r.tile]
			if c.Lookup(r.addr) == nil {
				v, _ := c.Victim(r.addr)
				c.Fill(v, r.addr, cache.State(1))
			}
		}
		return time.Since(start), len(refs)
	}
	replay()
	return medianPass(replay)
}

// sendNS is mesh.send_ns: Network.SendArg of a control message from
// each reference's tile to its block's home bank, plus its delivery,
// keeping about one message per tile in flight.
func sendNS(cfg core.Config, refs []ref) float64 {
	return medianPass(func() (time.Duration, int) {
		k := sim.NewKernel(cfg.Seed)
		net := mesh.New(k, topo.SquareGrid(cfg.Tiles), cfg.Net)
		start := time.Now()
		for _, r := range refs {
			home := topo.Tile(uint64(r.addr) % uint64(cfg.Tiles))
			net.SendArg(r.tile, home, cfg.Net.ControlFlits, noop, nil)
			for k.Pending() > cfg.Tiles {
				k.Step()
			}
		}
		k.Run(0)
		return time.Since(start), len(refs)
	})
}

// schedNS is sim.sched_ns: Kernel.AfterArg plus Step with depth events
// pending, each event rescheduling itself. Delays are uniform with the
// mean that Little's law gives for the run's depth and event rate.
func schedNS(seed uint64, depth int, meanDelay float64, steps int) float64 {
	rng := sim.NewRand(seed)
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = 1 + sim.Time(rng.Float64()*2*meanDelay)
	}
	return medianPass(func() (time.Duration, int) {
		k := sim.NewKernel(seed)
		i := 0
		var fire func(any)
		fire = func(arg any) {
			k.AfterArg(delays[i&4095], fire, arg)
			i++
		}
		for j := 0; j < max(depth, 1); j++ {
			k.AfterArg(delays[j&4095], fire, nil)
		}
		start := time.Now()
		for j := 0; j < steps; j++ {
			k.Step()
		}
		return time.Since(start), steps
	})
}
