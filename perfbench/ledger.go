package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// ledgerRuns are the repetitions behind the per-layer ledger.
type ledgerRuns struct {
	untraced, traced []repRun
	// Runtime counters over the untraced repetitions, and the largest
	// heap reading over all of them.
	rt        runtimeStats
	heapPeakB float64
	// Of the traced repetitions: CPU samples and the files they and the
	// spans were saved to.
	samples  []sample
	profiles []string
	spans    string
}

func (b *bench) ledgerRuns(budget time.Duration) (*ledgerRuns, error) {
	lr := &ledgerRuns{}
	if err := os.MkdirAll(b.opt.out, 0o755); err != nil {
		return nil, err
	}
	var err error
	// The sampler runs through both kinds, so it weighs on both alike.
	stopPeak := heapPeak()
	timed(budget, 2, func(i int) {
		if err != nil {
			return
		}
		// Untraced, traced, traced, untraced, and again: each kind sees
		// early and late positions alike.
		if i%4 == 0 || i%4 == 3 {
			rt0 := readRuntime()
			lr.untraced = append(lr.untraced, b.rep(b.cfgs))
			lr.rt.add(readRuntime().sub(rt0))
			return
		}
		var prof bytes.Buffer
		if err = pprof.StartCPUProfile(&prof); err != nil {
			err = fmt.Errorf("cpu profile: %w", err)
			return
		}
		b.tr.on = true
		lr.traced = append(lr.traced, b.rep(b.cfgs))
		b.tr.on = false
		pprof.StopCPUProfile()
		var s []sample
		if s, err = parseProfile(prof.Bytes()); err != nil {
			return
		}
		lr.samples = append(lr.samples, s...)
		path := filepath.Join(b.opt.out, fmt.Sprintf("%s.rep%d.cpu.pprof", stem(b.opt), len(lr.traced)-1))
		lr.profiles = append(lr.profiles, path)
		err = os.WriteFile(path, prof.Bytes(), 0o644)
	})
	lr.heapPeakB = stopPeak()
	if err != nil {
		return nil, err
	}
	lr.spans = filepath.Join(b.opt.out, stem(b.opt)+".spans.json")
	return lr, writeJSON(lr.spans, b.tr.spans)
}

// ledger computes the per-layer metrics from the ledger's runs, the
// checked runs and the standalone layer benchmarks.
func (b *bench) ledger(lr *ledgerRuns) (*ledger, error) {
	untraced, traced := okReps(lr.untraced), okReps(lr.traced)

	// Simulated counts of the checked runs (measured phases).
	var ex exact
	for _, cr := range b.checked {
		ex.add(cr.exact)
	}
	// Work done in the traced runs, every phase.
	var events, refs, misses, msgs float64
	protoRefs, protoSecs := map[string]float64{}, map[string]float64{}
	for _, r := range traced {
		for i, c := range r.cells {
			events += float64(c.events)
			refs += float64(allRefs(b.cfgs[i], c.res))
			misses += float64(c.tally.misses)
			msgs += float64(c.tally.messages)
			if b.sp.sweep {
				protoRefs[b.cfgs[i].Protocol] += float64(allRefs(b.cfgs[i], c.res))
			}
		}
	}
	if b.sp.sweep {
		// exp.Run gives no per-cell end time: charge each protocol the
		// CPU time of its cells' labelled samples.
		for _, s := range lr.samples {
			protoSecs[s.labels["protocol"]] += float64(s.cpuNS) / 1e9
		}
	}
	// Host time of the untraced runs, in CPU time as the end-to-end
	// metrics are.
	var builds, warmups, cpus, tracedCPUs []float64
	var sum took
	var untracedRefs float64
	for _, r := range untraced {
		var build, warm took
		for i, c := range r.cells {
			build, warm = build.add(c.build), warm.add(c.warmup)
			untracedRefs += float64(allRefs(b.cfgs[i], c.res))
			if !b.sp.sweep {
				protoRefs[b.cfgs[i].Protocol] += float64(c.res.Refs)
				protoSecs[b.cfgs[i].Protocol] += c.measure.cpu.Seconds()
			}
		}
		if b.sp.sweep {
			build.cpu = build.unstolen()
		}
		builds, warmups = append(builds, build.cpu.Seconds()), append(warmups, warm.cpu.Seconds())
		cpus = append(cpus, r.took.cpu.Seconds())
		sum = sum.add(r.took)
	}
	for _, r := range traced {
		tracedCPUs = append(tracedCPUs, r.took.cpu.Seconds())
	}
	workers := 1
	if b.sp.sweep {
		workers = runtime.NumCPU()
	}
	drv, err := b.layerBenchmarks()
	if err != nil {
		return nil, err
	}

	self, total := selfTime(lr.samples)
	l := newLedger()
	layer := func(name string) {
		l.set(name+".self_s", "s", self[name])
		l.set(name+".share", "ratio", ratio(self[name], total))
	}
	perOp := func(layer, name string, ops float64) { l.set(name, "ns", ratio(self[layer]*1e9, ops)) }
	per := func(a, b uint64) float64 { return ratio(float64(a), float64(b)) }

	layer("sim")
	perOp("sim", "sim.ns_per_event", events)
	l.set("sim.events_per_ref", "events/ref", per(ex.events, ex.refs))
	l.set("sim.sched_ns", "ns", drv.sched)
	layer("cache")
	perOp("cache", "cache.ns_per_ref", refs)
	l.set("cache.l1_miss_ratio", "misses/ref", per(ex.misses, ex.refs))
	l.set("cache.lookup_ns", "ns", drv.lookup)
	layer("proto")
	perOp("proto", "proto.ns_per_miss", misses)
	for _, p := range core.ProtocolNames {
		l.set("proto."+p+".refs_per_s", "1/s", ratio(protoRefs[p], protoSecs[p]))
	}
	layer("mesh")
	perOp("mesh", "mesh.ns_per_msg", msgs)
	l.set("mesh.flits_per_ref", "flits/ref", per(ex.flits, ex.refs))
	l.set("mesh.queueing_cycles_per_msg", "cycles/msg", per(ex.queueing, ex.messages))
	l.set("mesh.send_ns", "ns", drv.send)
	layer("memctrl")
	perOp("memctrl", "memctrl.ns_per_ref", refs)
	l.set("memctrl.mem_reads_per_ref", "reads/ref", per(ex.memReads, ex.refs))
	layer("workload")
	l.set("workload.next_ns", "ns", drv.next)
	layer("core")
	perOp("core", "core.ns_per_ref", refs)
	l.set("core.build_s", "s", median(builds))
	l.set("core.warmup_s", "s", median(warmups))
	l.set("exp.cpu_util", "ratio", ratio(sum.cpu.Seconds(), float64(workers)*sum.unstolen().Seconds()))
	layer("gc")
	l.set("gc.cpu_frac", "ratio", ratio(lr.rt.gcCPU, lr.rt.totalCPU-lr.rt.idleCPU))
	l.set("gc.alloc_bytes_per_ref", "B/ref", ratio(lr.rt.allocBytes, untracedRefs))
	l.set("gc.heap_peak_mb", "MB", lr.heapPeakB/(1<<20))
	layer("other")
	l.set("model.cycles", "cycles", float64(ex.cycles))
	l.set("model.energy_per_ref", "pJ/ref", ratio(ex.energyPJ, float64(ex.refs)))
	l.set("trace.overhead", "ratio", ratio(median(tracedCPUs), median(cpus))-1)
	return l, nil
}

// layerTimes are the standalone layer benchmarks' ns per operation.
type layerTimes struct{ sched, lookup, send, next float64 }

// layerBenchmarks runs the standalone layer benchmarks on each simulated
// workload, shaped by its checked runs, and averages over the workloads.
func (b *bench) layerBenchmarks() (layerTimes, error) {
	var sum layerTimes
	for _, wl := range b.sp.sims {
		var cfg core.Config
		var depth, cycles, events, n float64
		for i, c := range b.cfgs {
			if c.Workload == wl {
				cfg = c
				depth += b.checked[i].depth
				cycles += float64(b.checked[i].exact.cycles)
				events += float64(b.checked[i].exact.events)
				n++
			}
		}
		depth /= n
		// A core retires one reference per cycles/RefsPerCore cycles.
		round := sim.Time(ratio(cycles/n, float64(cfg.RefsPerCore)))
		next, refs, err := nextNS(cfg, cfg.WarmupRefs+cfg.RefsPerCore, round)
		if err != nil {
			return sum, err
		}
		sum.next += next
		sum.lookup += lookupNS(cfg, refs)
		sum.send += sendNS(cfg, refs)
		// Little's law: events stay pending depth/(events per cycle) cycles.
		sum.sched += schedNS(cfg.Seed, int(depth+0.5), depth*ratio(cycles, events), len(refs))
	}
	k := float64(len(b.sp.sims))
	return layerTimes{sum.sched / k, sum.lookup / k, sum.send / k, sum.next / k}, nil
}
