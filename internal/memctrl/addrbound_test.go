package memctrl_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestWorkloadBlockAddrsBelowTagLimit pins the address bound the
// caches' packed tags rely on (cache.AddrLimit): for every workload,
// the highest block the mapper can produce — the last block of the last
// reserved copy-on-write frame — stays below it. The generator maps
// every page up front, so the frame counts after construction are
// final; a sample of references confirms no access goes higher.
func TestWorkloadBlockAddrsBelowTagLimit(t *testing.T) {
	areas := topo.MustAreas(topo.NewGrid(8, 8), 4)
	placement := topo.MatchedPlacement(areas)
	for _, name := range workload.Names {
		for _, dedup := range []bool{true, false} {
			m := memctrl.NewMapper(dedup)
			g := workload.NewGenerator(workload.MustNamed(name), placement, m, sim.NewRand(1))
			regular, reserved := m.Frames()
			if regular >= memctrl.CoWFrameBase {
				t.Fatalf("%s dedup=%v: %d regular frames reach the copy-on-write base", name, dedup, regular)
			}
			top := memctrl.BlockAddr(regular-1, memctrl.BlocksPerPage-1)
			if reserved > 0 {
				top = memctrl.BlockAddr(memctrl.CoWFrameBase+reserved-1, memctrl.BlocksPerPage-1)
			}
			if top >= cache.AddrLimit {
				t.Errorf("%s dedup=%v: highest block %#x not below the tag limit %#x", name, dedup, top, cache.AddrLimit)
			}
			for i := 0; i < 20000; i++ {
				if a := g.Next(topo.Tile(i % 64)).Addr; a > top {
					t.Fatalf("%s dedup=%v: reference to block %#x above the mapped top %#x", name, dedup, a, top)
				}
			}
		}
	}
}
