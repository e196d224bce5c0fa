package proto

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// pointerState renders every tile's pointer caches in full: tags,
// pointers, LRU stamps and counters.
func pointerState(e Engine) string {
	tiles, _ := engineInternals(e)
	var b strings.Builder
	for i, t := range tiles {
		fmt.Fprintf(&b, "%d l1c %+v\n%d l2c %+v\n", i, *t.l1c, i, *t.l2c)
	}
	return b.String()
}

// TestChecksDoNotPerturb: the invariant checks and the stall dump's
// FormatBlockState only read. After a random run, calling them on the
// quiescent chip leaves every pointer cache exactly as it was, so a
// checked run replaces the same entries as a plain one.
func TestChecksDoNotPerturb(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			rng := sim.NewRand(5)
			var addrs []cache.Addr
			for batch := 0; batch < 6; batch++ {
				var reqs []struct {
					tile  topo.Tile
					addr  cache.Addr
					write bool
				}
				for i := 0; i < 64; i++ {
					a := cache.Addr(rng.Intn(48)*64 + rng.Intn(8))
					addrs = append(addrs, a)
					reqs = append(reqs, struct {
						tile  topo.Tile
						addr  cache.Addr
						write bool
					}{topo.Tile(rng.Intn(64)), a, rng.Intn(3) == 0})
				}
				c.parallelAccess(reqs)
			}
			before := pointerState(c.eng)
			c.eng.CheckInvariants()
			for _, a := range addrs {
				FormatBlockState(c.eng, a)
			}
			if after := pointerState(c.eng); after != before {
				t.Fatal("CheckInvariants or FormatBlockState changed pointer-cache state")
			}
		})
	}
}
