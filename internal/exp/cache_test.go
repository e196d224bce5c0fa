package exp

import (
	"testing"

	"repro/internal/core"
)

// memCache is an in-memory ResultCache for exercising the cache path
// without the obs package (which imports exp).
type memCache struct {
	entries map[core.Config]*core.Result
}

func (m *memCache) Load(cfg core.Config) (*core.Result, bool, error) {
	res, ok := m.entries[cfg]
	return res, ok, nil
}

func (m *memCache) Store(res *core.Result) error {
	m.entries[res.Config] = res
	return nil
}

// cachedVariants is three short runs that differ only in measure-phase
// knobs: plain, sampled and checked.
func cachedVariants() []core.Config {
	base := core.DefaultConfig()
	base.WarmupRefs = 400
	base.RefsPerCore = 200
	sampled, checked := base, base
	sampled.SampleEvery = 1000
	checked.Check = true
	return []core.Config{base, sampled, checked}
}

// TestRunConfigsCachedStats: the first pass misses everything and
// populates the cache; the second hits everything and simulates
// nothing.
func TestRunConfigsCachedStats(t *testing.T) {
	cfgs := cachedVariants()
	cache := &memCache{entries: map[core.Config]*core.Result{}}
	opt := Options{Workers: 1, Cache: cache}
	ran := 0
	_, cs, err := RunConfigs(cfgs, opt, func(i int) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 3 || cs.Hits != 0 || cs.Misses != 3 {
		t.Fatalf("cold pass: ran %d, stats %+v", ran, cs)
	}
	ran = 0
	results, cs, err := RunConfigs(cfgs, opt, func(i int) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || cs.Hits != 3 || cs.Misses != 0 {
		t.Fatalf("warm pass: ran %d, stats %+v", ran, cs)
	}
	for i, res := range results {
		if res != cache.entries[cfgs[i]] {
			t.Errorf("result %d did not come from the cache", i)
		}
	}
}

// TestRunConfigsStoresEachRun: a sweep whose middle run fails still
// stores the runs on either side of it, so a resumed sweep recomputes
// only the failure. The middle run's watchdog trips: any miss older
// than 8 cycles counts as stalled.
func TestRunConfigsStoresEachRun(t *testing.T) {
	cfgs := cachedVariants()
	cfgs[1].StallBound = 8 // cfgs[1] is the sampled run; add the checker
	cfgs[1].Check = true
	cache := &memCache{entries: map[core.Config]*core.Result{}}
	if _, _, err := RunConfigs(cfgs, Options{Workers: 1, Cache: cache}, nil); err == nil {
		t.Fatal("run with an 8-cycle stall bound did not fail")
	}
	if len(cache.entries) != 2 {
		t.Fatalf("cache holds %d runs after the failure, want 2", len(cache.entries))
	}
	for _, i := range []int{0, 2} {
		if cache.entries[cfgs[i]] == nil {
			t.Errorf("run %d was not stored", i)
		}
	}
}
