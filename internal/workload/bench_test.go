package workload

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/topo"
)

func noop(any) {}

// clockedGen builds name's generator as a system does: deduplication
// on, a one-cycle CoW delay and the kernel's clock, which tick advances
// by one cycle per round of references over the tiles.
func clockedGen(tb testing.TB, name string) (g *Generator, tick func()) {
	tb.Helper()
	placement := topo.MatchedPlacement(topo.MustAreas(topo.NewGrid(8, 8), 4))
	k := sim.NewKernel(1)
	mapper := memctrl.NewMapper(true)
	g = NewGenerator(MustNamed(name), placement, mapper, k.Rand().Fork())
	mapper.SetCoWDelay(1)
	g.SetLanes(nil, []*sim.Kernel{k})
	return g, func() {
		k.AfterArg(1, noop, nil)
		k.Step()
	}
}

// BenchmarkGeneratorNext times one reference: locality cursor, page
// choice, translation through the page handle and copy-on-write.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"radix4x16p", "apache4x16p", "jbb4x16p"} {
		b.Run(name[:len(name)-len("4x16p")], func(b *testing.B) {
			g, tick := clockedGen(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tile := topo.Tile(i & 63)
				if tile == 0 {
					tick()
				}
				g.Next(tile)
			}
		})
	}
}

// TestNextZeroAlloc: the per-reference path allocates nothing.
func TestNextZeroAlloc(t *testing.T) {
	for _, name := range []string{"radix4x16p", "apache4x16p", "jbb4x16p"} {
		g, tick := clockedGen(t, name)
		allocs := testing.AllocsPerRun(200, func() {
			tick()
			for tile := topo.Tile(0); tile < 64; tile++ {
				g.Next(tile)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per round of 64 references, want 0", name, allocs)
		}
	}
}
