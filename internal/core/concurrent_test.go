// Run-level parallelism gates. The simulator gets its multi-core
// speedup by running independent Systems side by side (the exp worker
// pool), so two Systems must share no mutable state: not the engines'
// message free lists, not a counter registry, not an observer. These
// tests run Systems concurrently — with and without every observer —
// and require each to reproduce its serial fingerprint bit for bit.
// The observer legs also pin that arming an observer never perturbs
// the serial run. The Sharded/Parallel names are those of the
// in-run executor gates these replaced; the reference side of every
// comparison is still the serial run.
package core

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
)

// runFingerprint builds and runs cfg and reduces the result to its
// deterministic counters.
func runFingerprint(t *testing.T, cfg Config) (protoFingerprint, *Result) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Workload, cfg.Protocol, err)
	}
	return fingerprintRun(res), res
}

// runConcurrently runs every config on its own goroutine at once and
// returns the results in input order.
func runConcurrently(t *testing.T, cfgs []Config) []*Result {
	t.Helper()
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d (%s/%s): %v", i, cfgs[i].Workload, cfgs[i].Protocol, err)
		}
	}
	return results
}

// requireSameFingerprint reports every difference between two run
// fingerprints.
func requireSameFingerprint(t *testing.T, label string, got, want protoFingerprint) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: fingerprint diverges from serial", label)
	diffMaps(t, label+" counter", got.Counters, want.Counters)
	diffMaps(t, label+" net", got.Net, want.Net)
	diffMaps(t, label+" miss_profile", got.Profile, want.Profile)
	if got.Cycles != want.Cycles || got.Events != want.Events || got.Refs != want.Refs || got.MemReads != want.MemReads {
		t.Errorf("%s: cycles/events/refs/mem_reads = %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.Cycles, got.Events, got.Refs, got.MemReads, want.Cycles, want.Events, want.Refs, want.MemReads)
	}
}

// requireSamePerVM compares two per-VM attributions field by field
// (counter banks by name, so a registration-order artifact cannot hide
// a value difference).
func requireSamePerVM(t *testing.T, got, want []VMStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("per-VM: %d VMs vs %d", len(got), len(want))
		return
	}
	for v := range want {
		g, w := &got[v], &want[v]
		if g.VM != w.VM || g.Tiles != w.Tiles || g.Refs != w.Refs ||
			g.Flits != w.Flits || g.Routers != w.Routers {
			t.Errorf("VM %d: identity/refs/net = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				w.VM, g.VM, g.Tiles, g.Refs, g.Flits, g.Routers, w.VM, w.Tiles, w.Refs, w.Flits, w.Routers)
		}
		gn, wn := g.Counters.Names(), w.Counters.Names()
		if !reflect.DeepEqual(gn, wn) {
			t.Errorf("VM %d: counter name sets differ: %v vs %v", w.VM, gn, wn)
			continue
		}
		for _, name := range wn {
			if gv, wv := g.Counters.Value(name), w.Counters.Value(name); gv != wv {
				t.Errorf("VM %d: counter %s = %d, want %d", w.VM, name, gv, wv)
			}
		}
		if !reflect.DeepEqual(g.Breakdown, w.Breakdown) {
			t.Errorf("VM %d: energy breakdown diverges", w.VM)
		}
		if g.MissLatency != w.MissLatency {
			t.Errorf("VM %d: miss-latency histogram diverges", w.VM)
		}
		if g.P50 != w.P50 || g.P99 != w.P99 || g.P999 != w.P999 {
			t.Errorf("VM %d: percentiles %d/%d/%d, want %d/%d/%d",
				w.VM, g.P50, g.P99, g.P999, w.P50, w.P99, w.P999)
		}
	}
}

// TestParallelMatchesSerialAllProtocols runs, for every engine, two
// copies of its configuration concurrently with a run of the next
// engine, and requires both copies to reproduce the serial
// fingerprint exactly.
func TestParallelMatchesSerialAllProtocols(t *testing.T) {
	for i, p := range ProtocolNames {
		p, other := p, ProtocolNames[(i+1)%len(ProtocolNames)]
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			want, _ := runFingerprint(t, cfg)
			mixed := cfg
			mixed.Protocol = other
			results := runConcurrently(t, []Config{cfg, mixed, cfg})
			requireSameFingerprint(t, "copy 0", fingerprintRun(results[0]), want)
			requireSameFingerprint(t, "copy 1", fingerprintRun(results[2]), want)
		})
	}
}

// observerCombos arms every observer — coherence checker,
// kernel/latency profiling, epoch sampling, causal tracing, per-VM
// attribution — alone and all together.
var observerCombos = []struct {
	name                         string
	check, profile, trace, pervm bool
	sample                       bool
}{
	{name: "check", check: true},
	{name: "profile", profile: true},
	{name: "sample", sample: true},
	{name: "trace", trace: true},
	{name: "pervm", pervm: true},
	{name: "all", check: true, profile: true, sample: true, trace: true, pervm: true},
}

func observedCfg(check, profile, trace, pervm, sample bool) Config {
	cfg := smallCfg("providers", "apache4x16p")
	cfg.WarmupRefs = 100
	cfg.Check = check
	cfg.Profile = profile
	cfg.Trace = trace
	cfg.PerVM = pervm
	if sample {
		cfg.SampleEvery = 500
	}
	return cfg
}

// TestShardedMatchesSerialWithObservers pins that no observer perturbs
// the serial run: with any combination armed, every architectural
// counter matches the plain run. Sampling and the checker's stall
// watchdog schedule their own tick events, so only the kernel event
// count may differ when either is armed. The observers read global
// state (chip-wide queue depth, shadow memory), so they are the part
// most likely to leak into the simulation.
func TestShardedMatchesSerialWithObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	want, _ := runFingerprint(t, observedCfg(false, false, false, false, false))
	for _, c := range observerCombos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, res := runFingerprint(t, observedCfg(c.check, c.profile, c.trace, c.pervm, c.sample))
			if c.sample {
				if res.Series == nil || len(res.Series.Samples) == 0 {
					t.Fatal("sampled run recorded no series")
				}
			}
			if c.sample || c.check {
				got.Events = want.Events
			}
			requireSameFingerprint(t, c.name, got, want)
			if c.profile && (res.Prof == nil || res.Prof.Kernel.Dispatched() == 0) {
				t.Error("profiled run carries no kernel profile")
			}
			if c.pervm && len(res.PerVM) == 0 {
				t.Error("per-VM run carries no attribution")
			}
		})
	}
}

// TestParallelObserverFallback runs each observer combination
// concurrently with a second observed run and a plain one, and
// requires the observed results — fingerprint, profile, epoch series,
// per-VM attribution — to equal the serial observed run's. Observers
// hang off their own System, so running beside another System must
// not change a single value they record.
func TestParallelObserverFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	combos := append([]struct {
		name                         string
		check, profile, trace, pervm bool
		sample                       bool
	}{{name: "plain"}}, observerCombos...)
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := observedCfg(c.check, c.profile, c.trace, c.pervm, c.sample)
			want, wres := runFingerprint(t, cfg)
			results := runConcurrently(t, []Config{cfg, observedCfg(false, false, false, false, false), cfg})
			for _, gres := range []*Result{results[0], results[2]} {
				requireSameFingerprint(t, c.name, fingerprintRun(gres), want)
				if c.profile {
					if !reflect.DeepEqual(gres.Prof.Kernel, wres.Prof.Kernel) {
						t.Errorf("kernel profile diverges:\nconcurrent %+v\nserial     %+v",
							gres.Prof.Kernel, wres.Prof.Kernel)
					}
					if !reflect.DeepEqual(gres.Prof.MissLatency, wres.Prof.MissLatency) {
						t.Errorf("miss-latency histogram diverges")
					}
				}
				if c.sample && !reflect.DeepEqual(gres.Series, wres.Series) {
					t.Errorf("telemetry series diverges")
				}
				if c.pervm {
					requireSamePerVM(t, gres.PerVM, wres.PerVM)
				}
			}
		})
	}
}

// TestShardedOtherWorkloadsAndPlacement spot-checks the concurrent
// gate off the default configuration: alternative placement, dedup
// off, a second seed.
func TestShardedOtherWorkloadsAndPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"alt-placement", func(c *Config) { c.AltPlacement = true }},
		{"dedup-off", func(c *Config) { c.Dedup = false }},
		{"other-seed", func(c *Config) { c.Seed = 99 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg("arin", "apache4x16p")
			tc.mut(&cfg)
			want, _ := runFingerprint(t, cfg)
			plain := smallCfg("arin", "apache4x16p")
			results := runConcurrently(t, []Config{cfg, plain})
			requireSameFingerprint(t, tc.name, fingerprintRun(results[0]), want)
		})
	}
}

// TestParallelCrossCheckFingerprint replays the crosscheck workload
// with all four engines running at once and compares against the
// checked-in golden the serial run is pinned to.
func TestParallelCrossCheckFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("four full protocol runs")
	}
	if os.Getenv("CROSSCHECK_UPDATE") != "" {
		t.Skip("golden being regenerated by TestCrossCheckSeedFingerprint")
	}
	data, err := os.ReadFile(crosscheckGolden)
	if err != nil {
		t.Fatalf("missing golden (run with CROSSCHECK_UPDATE=1 to capture): %v", err)
	}
	var want map[string]protoFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, p := range ProtocolNames {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.RefsPerCore = 400
		cfg.WarmupRefs = 800
		cfgs = append(cfgs, cfg)
	}
	for i, res := range runConcurrently(t, cfgs) {
		p := cfgs[i].Protocol
		requireSameFingerprint(t, p, fingerprintRun(res), want[p])
	}
}
