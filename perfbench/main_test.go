package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cache.(*Cache).Lookup", "repro/internal/proto.(*DiCo).access"}, "cache"},
		// A runtime frame is charged to its nearest repository caller.
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/proto.(*Directory).atHome", "repro/internal/sim.(*Kernel).Step"}, "proto"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/core.(*System).runPhase.func1"}, "core"},
		// A GC worker with no repository frame is charged to gc.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		// Repository packages outside the layers, and stacks that are
		// neither, go to other.
		{[]string{"repro/internal/stats.(*Counter).Inc", "repro/internal/proto.(*DiCo).access"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mPark"}, "other"},
		{[]string{"main.(*tally).Retired", "repro/internal/proto.(*Context).retire"}, "proto"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestSelfTimeSharesSumToSampledCPU(t *testing.T) {
	samples := []sample{
		{stack: []string{"repro/internal/sim.(*Kernel).Step"}, cpuNS: 30e6},
		{stack: []string{"runtime.memmove", "repro/internal/mesh.(*Network).send"}, cpuNS: 10e6},
		{stack: []string{"runtime.gcBgMarkWorker"}, cpuNS: 10e6},
		{stack: []string{"runtime.futex"}, cpuNS: 10e6},
		{stack: []string{"repro/internal/sim.(*Kernel).Run"}, cpuNS: 40e6},
	}
	self, total := selfTime(samples)
	if math.Abs(total-0.1) > 1e-12 {
		t.Fatalf("total = %v s, want 0.1", total)
	}
	sum, shares := 0.0, 0.0
	for _, l := range layers {
		sum += self[l]
		shares += ratio(self[l], total)
	}
	if math.Abs(sum-total) > 1e-12 || math.Abs(shares-1) > 1e-12 {
		t.Errorf("layers sum to %v s and share %v, want %v s and 1", sum, shares, total)
	}
	if math.Abs(self["sim"]-0.07) > 1e-12 || math.Abs(self["mesh"]-0.01) > 1e-12 {
		t.Errorf("sim %v s, mesh %v s; want 0.07 and 0.01", self["sim"], self["mesh"])
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	pprof.Do(context.Background(), pprof.Labels("protocol", "dico"), func(context.Context) {
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		// Under go test the package is named by its import path, not main.
		fn := slices.IndexFunc(s.stack, func(f string) bool { return strings.HasSuffix(f, ".TestParseProfile.func1") })
		if fn < 0 {
			continue
		}
		found = true
		if s.labels["protocol"] != "dico" {
			t.Errorf("labels = %v, want protocol=dico", s.labels)
		}
		// Stacks run leaf first: the test runner is further out.
		if runner := slices.Index(s.stack, "testing.tRunner"); runner < fn {
			t.Errorf("testing.tRunner at %d, this test's frame at %d: want the runner outside", runner, fn)
		}
	}
	if !found {
		t.Fatalf("no sample holds this test's frame among %d samples", len(samples))
	}
}

// shortSpec is sp at a test's length.
func shortSpec(sp spec) spec {
	sp.refs, sp.warmup = 150, 300
	return sp
}

func TestDigestStableAcrossReps(t *testing.T) {
	sp := shortSpec(specs[0])
	b := &bench{sp: sp, tr: newTracer(), cfgs: sp.cells(7)}
	digests := map[string]bool{}
	for i := 0; i < 2; i++ {
		var fps []fingerprint
		for _, c := range b.rep(b.cfgs).cells {
			if c.err != nil {
				t.Fatal(c.err)
			}
			fps = append(fps, fingerprintOf(c.res, c.res.Events))
		}
		digests[modelDigest(fps)] = true
	}
	// A watchdog bound this small makes the checked runs probe many
	// times; taking the ticks out must still match the plain runs.
	var fps []fingerprint
	for _, cfg := range b.cfgs {
		cr, err := runChecked(cfg, 8000)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, cr.fp)
	}
	digests[modelDigest(fps)] = true
	if len(digests) != 1 {
		t.Errorf("two reps and the checked runs gave %d distinct digests, want 1", len(digests))
	}
}

func TestShortRunsHaveNoFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			opt := options{workload: sp.name, seed: 3, trace: trace, out: t.TempDir()}
			res, l, err := measure(shortSpec(sp), opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", sp.name, trace, res.Failed, res.Attempted, res.Failures)
			}
			want := []string{"refs_per_s", "wall_s", "setup_s", "max_rss_mb"}
			if trace {
				want = []string{"sim.share", "cache.lookup_ns", "mesh.send_ns", "sim.sched_ns", "workload.next_ns",
					"proto.arin.refs_per_s", "exp.cpu_util", "model.energy_per_ref", "trace.overhead"}
			}
			for _, name := range want {
				if _, ok := l.values[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.name, trace, name)
				}
			}
			if trace {
				shares := 0.0
				for _, layer := range layers {
					shares += l.values[layer+".share"].Value
				}
				if math.Abs(shares-1) > 1e-9 {
					t.Errorf("%s: shares sum to %v, want 1", sp.name, shares)
				}
			}
		}
	}
}

func TestCellsUseOnlyTheAllowedFields(t *testing.T) {
	for _, sp := range specs {
		for _, cfg := range sp.cells(5) {
			want := core.DefaultConfig()
			want.Workload, want.Protocol = cfg.Workload, cfg.Protocol
			want.RefsPerCore, want.WarmupRefs, want.Seed = sp.refs, sp.warmup, 5
			if cfg != want {
				t.Errorf("%s: cell %s/%s differs from the default config beyond its allowed fields", sp.name, cfg.Workload, cfg.Protocol)
			}
		}
	}
}

func TestVerifyFailsCellsWhoseCheckedRunFailed(t *testing.T) {
	cfg := core.DefaultConfig()
	if got := verify(cfg, cellRun{}, fingerprint{}, errors.New("invariant violated")); got != "unverified: its checked run failed" {
		t.Errorf("verify with a failed checked run = %q", got)
	}
	if got := verify(cfg, cellRun{err: errors.New("stalled")}, fingerprint{}, errors.New("invariant violated")); got != "stalled" {
		t.Errorf("verify of a failed timed cell = %q, want its own error", got)
	}
}
