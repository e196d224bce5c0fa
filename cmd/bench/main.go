// Command bench is the repeatable performance harness: it measures the
// event-kernel scheduling hot path and end-to-end simulation
// throughput for all four protocols on the paper's default workload,
// and writes the numbers as JSON, stamped with the code identity of
// the binary (obs.Revision). -smoke shrinks the reference budget for
// CI. -compare diffs the fresh numbers against a baseline file and
// fails on a throughput regression or a live-heap growth beyond the
// tolerance; numbers only compare when both files come from the same
// host, back to back (CI runs the merge base and the head on one
// runner).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// KernelBench reports the scheduler microbenchmark: steady-state
// push+pop throughput at a realistic queue depth (the pattern the
// coherence simulation generates).
type KernelBench struct {
	Events       uint64  `json:"events"`
	QueueDepth   int     `json:"queue_depth"`
	NSPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// ProtoBench reports one protocol's end-to-end throughput and the live
// heap of its system after the run.
type ProtoBench struct {
	Cycles     uint64  `json:"cycles"`
	Refs       uint64  `json:"refs"`
	Events     uint64  `json:"kernel_events"`
	WallMS     float64 `json:"wall_ms"`
	RefsPerSec float64 `json:"refs_per_sec"`
	HeapMB     float64 `json:"heap_mb"` // HeapAlloc after a GC, system still reachable
}

// EndToEnd reports the 4-protocol default-workload sweep.
type EndToEnd struct {
	Workload    string                `json:"workload"`
	RefsPerCore int                   `json:"refs_per_core"`
	WarmupRefs  int                   `json:"warmup_refs"`
	Tiles       int                   `json:"tiles"`
	Reps        int                   `json:"reps"`         // timed repetitions per protocol; best wall clock reported
	Instrument  bool                  `json:"instrumented"` // per-VM attribution + sampling armed (-obs)
	Protocols   map[string]ProtoBench `json:"protocols"`
	RefsPerSec  float64               `json:"total_refs_per_sec"`
}

// Bench is the schema of a BENCH_*.json file.
type Bench struct {
	Schema   int         `json:"schema"`
	Tool     string      `json:"tool"`
	Revision string      `json:"revision"`
	Mode     string      `json:"mode"`
	Kernel   KernelBench `json:"kernel"`
	EndToEnd EndToEnd    `json:"end_to_end"`
}

func main() {
	smoke := flag.Bool("smoke", false, "reduced budget for CI (fast, noisier numbers)")
	reps := flag.Int("reps", 0, "timed repetitions per protocol, best kept (0 = 3 full / 1 smoke)")
	out := flag.String("out", "BENCH_10.json", "output file")
	compare := flag.String("compare", "", "baseline bench JSON from the same host (e.g. the merge base, run just before) to diff against; exits 1 on a throughput regression or live-heap growth beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.15, "with -compare: maximum fractional throughput regression or live-heap growth per benchmark")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the end-to-end sweep to this file (analyze with `go tool pprof`)")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the sweep) to this file")
	obsOn := flag.Bool("obs", false, "arm per-VM attribution and epoch sampling during the end-to-end sweep — compare against an unarmed baseline to measure observability overhead")
	flag.Parse()

	mode, refs, warmup, kernelEvents := "full", 6000, 12000, uint64(8_000_000)
	if *smoke {
		mode, refs, warmup, kernelEvents = "smoke", 1000, 2000, 1_000_000
	}
	if *reps <= 0 {
		*reps = 3
		if *smoke {
			*reps = 1
		}
	}

	b := Bench{Schema: 1, Tool: "bench", Revision: obs.Revision(), Mode: mode}
	b.Kernel = kernelBench(kernelEvents)
	fmt.Fprintf(os.Stderr, "kernel: %.1f ns/event (%.2fM events/s)\n",
		b.Kernel.NSPerEvent, b.Kernel.EventsPerSec/1e6)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	e2e, err := endToEnd(refs, warmup, *reps, *obsOn)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "bench:", merr)
			os.Exit(1)
		}
		runtime.GC()
		if merr := pprof.Lookup("allocs").WriteTo(f, 0); merr != nil {
			fmt.Fprintln(os.Stderr, "bench:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	b.EndToEnd = e2e
	fmt.Fprintf(os.Stderr, "end-to-end: %.0f refs/s over %d protocols\n",
		e2e.RefsPerSec, len(e2e.Protocols))

	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *compare != "" {
		if err := compareBench(*compare, &b, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// compareBench prints per-benchmark deltas of fresh against the saved
// baseline and returns an error if any throughput regressed, or any
// protocol's live heap grew, by more than tolerance. Wall-clock numbers
// depend on the reference budget, so baselines recorded in a different
// mode only warn. A baseline without heap numbers skips the heap rows.
func compareBench(path string, fresh *Bench, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Bench
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: not a bench file: %w", path, err)
	}
	fmt.Printf("vs %s (%s@%s):\n", path, base.Mode, base.Revision)
	comparable := true
	var skipReasons []string
	disarm := func(reason string) {
		comparable = false
		skipReasons = append(skipReasons, reason)
		fmt.Printf("  %s — deltas reported, regression gate skipped\n", reason)
	}
	if base.Mode != fresh.Mode {
		disarm(fmt.Sprintf("baseline mode %q != current mode %q", base.Mode, fresh.Mode))
	}
	if base.EndToEnd.Instrument != fresh.EndToEnd.Instrument {
		// The gate stays armed on purpose: comparing an instrumented run
		// against an unarmed baseline of the same mode IS the
		// observability-overhead gate.
		fmt.Printf("  instrumented: baseline %v, current %v — delta is the observability overhead\n",
			base.EndToEnd.Instrument, fresh.EndToEnd.Instrument)
	}
	type row struct {
		name        string
		base, cur   float64
		lowerBetter bool // live heap; throughput is higher-better
	}
	rows := []row{{"kernel events/s", base.Kernel.EventsPerSec, fresh.Kernel.EventsPerSec, false}}
	var heapRows []row
	for _, p := range core.ProtocolNames {
		bp, ok := base.EndToEnd.Protocols[p]
		cp, ok2 := fresh.EndToEnd.Protocols[p]
		if !ok || !ok2 {
			fmt.Printf("  %-18s missing from %s\n", p, map[bool]string{true: "baseline", false: "current run"}[!ok])
			continue
		}
		rows = append(rows, row{p + " refs/s", bp.RefsPerSec, cp.RefsPerSec, false})
		if bp.HeapMB > 0 {
			heapRows = append(heapRows, row{p + " heap MB", bp.HeapMB, cp.HeapMB, true})
		} else {
			fmt.Printf("  %-18s missing from baseline\n", p+" heap MB")
		}
	}
	rows = append(rows, row{"total refs/s", base.EndToEnd.RefsPerSec, fresh.EndToEnd.RefsPerSec, false})
	rows = append(rows, heapRows...)
	var regressed []string
	deltas := map[string]float64{}
	for _, r := range rows {
		delta := r.cur/r.base - 1
		deltas[r.name] = delta
		mark := ""
		worse := -delta
		if r.lowerBetter {
			worse = delta
		}
		if worse > tolerance {
			mark = "  << regression"
			regressed = append(regressed, fmt.Sprintf("%s %+.1f%%", r.name, delta*100))
		}
		fmt.Printf("  %-18s %12.0f -> %12.0f  %+6.1f%%%s\n", r.name, r.base, r.cur, delta*100, mark)
	}
	// One machine-readable summary line per comparison, so a disarmed
	// gate is recorded with its reasons rather than lost.
	summary := struct {
		Tool            string             `json:"tool"`
		Baseline        string             `json:"baseline"`
		BaselineMode    string             `json:"baseline_mode"`
		Mode            string             `json:"mode"`
		BaselineObs     bool               `json:"baseline_instrumented"`
		Obs             bool               `json:"instrumented"`
		GateArmed       bool               `json:"gate_armed"`
		GateSkipReasons []string           `json:"gate_skip_reasons,omitempty"`
		Tolerance       float64            `json:"tolerance"`
		Deltas          map[string]float64 `json:"deltas"`
		Regressed       []string           `json:"regressed,omitempty"`
	}{
		Tool: "bench-compare", Baseline: path,
		BaselineMode: base.Mode, Mode: fresh.Mode,
		BaselineObs: base.EndToEnd.Instrument, Obs: fresh.EndToEnd.Instrument,
		GateArmed: comparable, GateSkipReasons: skipReasons, Tolerance: tolerance,
		Deltas: deltas, Regressed: regressed,
	}
	if line, err := json.Marshal(&summary); err == nil {
		fmt.Printf("compare-summary: %s\n", line)
	}
	if len(regressed) > 0 && comparable {
		return fmt.Errorf("regressed beyond %.0f%%: %s", tolerance*100, strings.Join(regressed, ", "))
	}
	return nil
}

// kernelBench measures steady-state schedule+dispatch at a 4096-deep
// queue, the same load shape as internal/sim's BenchmarkSchedule.
func kernelBench(events uint64) KernelBench {
	k := sim.NewKernel(1)
	nop := func() {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		k.After(sim.Time(i%97), nop)
	}
	start := time.Now()
	for i := uint64(0); i < events; i++ {
		k.After(sim.Time(i%97), nop)
		k.Step()
	}
	elapsed := time.Since(start)
	ns := float64(elapsed.Nanoseconds()) / float64(events)
	return KernelBench{
		Events:       events,
		QueueDepth:   depth,
		NSPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
	}
}

// endToEnd times each protocol on the default workload serially (so
// the per-protocol wall clocks do not contend with each other). Each
// protocol runs reps times behind a GC barrier and reports its best
// wall clock: a single timed run absorbs whatever garbage the previous
// protocol left plus its own cold page faults, which showed up as
// 10-20% run-to-run swings that have nothing to do with the simulator.
// After the last rep, with its system still reachable, a GC and a
// HeapAlloc reading give the protocol's live heap.
func endToEnd(refs, warmup, reps int, instrument bool) (EndToEnd, error) {
	base := core.DefaultConfig()
	base.RefsPerCore = refs
	base.WarmupRefs = warmup
	if instrument {
		// Per-VM attribution and sampling, so -compare against an unarmed
		// baseline of the same mode gates their overhead.
		base.PerVM = true
		base.SampleEvery = 2000
	}
	e := EndToEnd{
		Workload:    base.Workload,
		RefsPerCore: refs,
		WarmupRefs:  warmup,
		Tiles:       base.Tiles,
		Reps:        reps,
		Instrument:  instrument,
		Protocols:   map[string]ProtoBench{},
	}
	var totalRefs uint64
	var totalWall time.Duration
	for _, p := range core.ProtocolNames {
		cfg := base
		cfg.Protocol = p
		fmt.Fprintf(os.Stderr, "running %s / %s (%d reps)...\n", cfg.Workload, p, reps)
		if err := cfg.Validate(); err != nil {
			return e, err
		}
		var bestRes *core.Result
		var bestWall time.Duration
		var heapMB float64
		for rep := 0; rep < reps; rep++ {
			runtime.GC()
			start := time.Now()
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return e, err
			}
			res, err := sys.Run()
			if err != nil {
				return e, err
			}
			wall := time.Since(start)
			if bestRes == nil || wall < bestWall {
				bestRes, bestWall = res, wall
			}
			if rep == reps-1 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heapMB = float64(ms.HeapAlloc) / (1 << 20)
				runtime.KeepAlive(sys)
			}
		}
		totalRefs += bestRes.Refs
		totalWall += bestWall
		e.Protocols[p] = ProtoBench{
			Cycles:     uint64(bestRes.Cycles),
			Refs:       bestRes.Refs,
			Events:     bestRes.Events,
			WallMS:     float64(bestWall.Nanoseconds()) / 1e6,
			RefsPerSec: float64(bestRes.Refs) / bestWall.Seconds(),
			HeapMB:     heapMB,
		}
		fmt.Fprintf(os.Stderr, "  %s live heap %.1f MB\n", p, heapMB)
	}
	e.RefsPerSec = float64(totalRefs) / totalWall.Seconds()
	return e, nil
}
