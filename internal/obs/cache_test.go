package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

func cacheConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RefsPerCore = 300
	cfg.WarmupRefs = 600
	return cfg
}

// TestRunCacheRoundTrip: a stored run loads back bit-identical, and a
// config differing in any field misses.
func TestRunCacheRoundTrip(t *testing.T) {
	cache, err := OpenRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cache.Load(cfg); err != nil || ok {
		t.Fatalf("empty cache returned ok=%v err=%v", ok, err)
	}
	if err := cache.Store(res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stored entry missed")
	}
	requireEqualRecords(t, FromResult(res), FromResult(got))

	other := cfg
	other.Seed++
	if _, ok, _ := cache.Load(other); ok {
		t.Error("config with a different seed hit the cache")
	}
	other = cfg
	other.SampleEvery = 100
	if _, ok, _ := cache.Load(other); ok {
		t.Error("config with different sampling hit the cache")
	}
}

// requireEqualRecords compares two runs through their manifest
// records, which cover every serialized output field.
func requireEqualRecords(t *testing.T, a, b RunRecord) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Refs != b.Refs || a.Events != b.Events || a.MemReads != b.MemReads {
		t.Errorf("headline counters differ: %+v vs %+v", a, b)
	}
	if len(a.Counters) != len(b.Counters) {
		t.Fatalf("counter count %d vs %d", len(a.Counters), len(b.Counters))
	}
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] {
			t.Errorf("counter %d: %+v vs %+v", i, a.Counters[i], b.Counters[i])
		}
	}
	if a.Net != b.Net {
		t.Errorf("net stats differ: %+v vs %+v", a.Net, b.Net)
	}
	if a.Energies != b.Energies {
		t.Errorf("energies differ")
	}
}

// TestRunCacheCorruptEntryLoud: a damaged entry must fail the load,
// not silently recompute — silent repair would mask cache bugs.
func TestRunCacheCorruptEntryLoud(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(res); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cache.Key(cfg)+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Load(cfg); err == nil {
		t.Fatal("corrupt cache entry loaded without error")
	}
}

// TestRunCacheSweepResume: the experiment runner's incremental mode.
// A sweep against an empty cache computes everything; the identical
// sweep against the warm cache computes nothing, and both produce the
// same matrix.
func TestRunCacheSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep twice")
	}
	cache, err := OpenRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := exp.Options{
		Workloads: []string{"apache4x16p"},
		Base:      cacheConfig(),
		Cache:     cache,
	}
	cold, err := exp.Run(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Hits != 0 || cold.Cache.Misses != len(core.ProtocolNames) {
		t.Fatalf("cold sweep: %+v, want 0 hits / %d misses", cold.Cache, len(core.ProtocolNames))
	}
	ran := 0
	warm, err := exp.Run(opt, func(wl, p string) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("warm sweep simulated %d cells", ran)
	}
	if warm.Cache.Hits != len(core.ProtocolNames) || warm.Cache.Misses != 0 {
		t.Fatalf("warm sweep: %+v, want %d hits / 0 misses", warm.Cache, len(core.ProtocolNames))
	}
	for _, p := range core.ProtocolNames {
		a := FromResult(cold.Results["apache4x16p"][p])
		b := FromResult(warm.Results["apache4x16p"][p])
		requireEqualRecords(t, a, b)
	}
}

// TestRevisionTracksExecutable: the code identity hashes the executable,
// so two binaries that differ in any byte key the same config to two
// different cache entries — a rebuilt binary never reads the runs of
// the old one, even when neither carries a VCS revision.
func TestRevisionTracksExecutable(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	data, err := os.ReadFile(self)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, data, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, append(data, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	revA, revB := exeRevision(a), exeRevision(b)
	if revA == revB || revA == "exe-unknown" || revB == "exe-unknown" {
		t.Fatalf("executables differ but identities are %q and %q", revA, revB)
	}
	if got := exeRevision(self); got != revA {
		t.Errorf("byte-identical executables: %q vs %q", got, revA)
	}
	if !strings.HasSuffix(Revision(), revA) {
		t.Errorf("Revision() = %q does not end in this binary's hash %q", Revision(), revA)
	}
	cfg := cacheConfig()
	ca := &RunCache{dir: dir, rev: vcsPrefix() + revA}
	cb := &RunCache{dir: dir, rev: vcsPrefix() + revB}
	if ca.Key(cfg) == cb.Key(cfg) {
		t.Fatal("two executables produced the same cache key")
	}
}
