package memctrl

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestBorderTilesOnBorders(t *testing.T) {
	g := topo.NewGrid(8, 8)
	tiles := BorderTiles(g, 8)
	if len(tiles) != 8 {
		t.Fatalf("got %d tiles, want 8", len(tiles))
	}
	seen := make(map[topo.Tile]bool)
	for _, tile := range tiles {
		_, y := g.Coord(tile)
		if y != 0 && y != 7 {
			t.Errorf("controller at tile %d not on a border row", tile)
		}
		if seen[tile] {
			t.Errorf("duplicate controller tile %d", tile)
		}
		seen[tile] = true
	}
}

func TestControllersInterleave(t *testing.T) {
	g := topo.NewGrid(8, 8)
	c := Default(g, sim.NewRand(1))
	counts := make(map[topo.Tile]int)
	for a := cache.Addr(0); a < 8000; a++ {
		counts[c.For(a)]++
	}
	if len(counts) != 8 {
		t.Fatalf("addresses map to %d controllers, want 8", len(counts))
	}
	for tile, n := range counts {
		if n != 1000 {
			t.Errorf("controller %d got %d addresses, want 1000", tile, n)
		}
	}
}

func TestLatencyRange(t *testing.T) {
	c := New([]topo.Tile{0}, 300, 16, sim.NewRand(2))
	sawJitter := false
	for i := 0; i < 200; i++ {
		l := c.ReadLatency()
		if l < 300 || l > 316 {
			t.Fatalf("latency %d outside [300,316]", l)
		}
		if l != 300 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Error("jitter never applied")
	}
	if c.Reads != 200 {
		t.Errorf("Reads = %d, want 200", c.Reads)
	}
	c.WriteLatency()
	if c.Writes != 1 {
		t.Errorf("Writes = %d, want 1", c.Writes)
	}
}

func TestMapperPrivateIsolation(t *testing.T) {
	m := NewMapper(true)
	p0, _ := m.Translate(0, 100, PagePrivate, false)
	p1, _ := m.Translate(1, 100, PagePrivate, false)
	if p0 == p1 {
		t.Error("private pages of different VMs share a frame")
	}
	again, _ := m.Translate(0, 100, PagePrivate, true)
	if again != p0 {
		t.Error("private translation not stable")
	}
}

func TestMapperDedupMerges(t *testing.T) {
	m := NewMapper(true)
	p0, _ := m.Translate(0, 7, PageDedup, false)
	p1, _ := m.Translate(1, 7, PageDedup, false)
	p2, _ := m.Translate(2, 7, PageDedup, false)
	if p0 != p1 || p1 != p2 {
		t.Error("dedup pages not merged across VMs")
	}
	if m.DedupRefs != 2 {
		t.Errorf("DedupRefs = %d, want 2", m.DedupRefs)
	}
}

func TestMapperDedupOff(t *testing.T) {
	m := NewMapper(false)
	p0, _ := m.Translate(0, 7, PageDedup, false)
	p1, _ := m.Translate(1, 7, PageDedup, false)
	if p0 == p1 {
		t.Error("dedup off but pages merged")
	}
}

func TestMapperCopyOnWrite(t *testing.T) {
	m := NewMapper(true)
	shared, _ := m.Translate(0, 7, PageDedup, false)
	other, _ := m.Translate(1, 7, PageDedup, false)
	if shared != other {
		t.Fatal("precondition: pages merged")
	}
	broken, cow := m.Translate(1, 7, PageDedup, true)
	if !cow {
		t.Fatal("write to dedup page did not report CoW")
	}
	if broken == shared {
		t.Fatal("CoW did not allocate a new frame")
	}
	// VM 1 now sticks to its copy; VM 0 keeps the shared frame.
	p1, cow2 := m.Translate(1, 7, PageDedup, false)
	if cow2 || p1 != broken {
		t.Error("post-CoW translation unstable")
	}
	p0, _ := m.Translate(0, 7, PageDedup, false)
	if p0 != shared {
		t.Error("CoW disturbed the other VM's mapping")
	}
	if m.CoWBreaks != 1 {
		t.Errorf("CoWBreaks = %d, want 1", m.CoWBreaks)
	}
}

func TestMapperSavedFraction(t *testing.T) {
	m := NewMapper(true)
	// 4 VMs x 100 private pages + 4 VMs sharing 25 dedup pages.
	for vm := 0; vm < 4; vm++ {
		for p := uint64(0); p < 100; p++ {
			m.Translate(vm, 1000+uint64(vm)*10000+p, PagePrivate, false)
		}
		for p := uint64(0); p < 25; p++ {
			m.Translate(vm, p, PageDedup, false)
		}
	}
	// Without dedup: 4*125 = 500 pages; with: 400 + 25 = 425.
	got := m.SavedFraction()
	want := 1 - 425.0/500.0
	if got < want-0.001 || got > want+0.001 {
		t.Errorf("SavedFraction = %v, want %v", got, want)
	}
}

func TestBlockAddrProperty(t *testing.T) {
	if err := quick.Check(func(page uint32, blk uint8) bool {
		b := int(blk) % BlocksPerPage
		a := BlockAddr(uint64(page), b)
		return uint64(a)/BlocksPerPage == uint64(page) && int(uint64(a)%BlocksPerPage) == b
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMapperDistinctContentDistinctFrames(t *testing.T) {
	m := NewMapper(true)
	p0, _ := m.Translate(0, 1, PageDedup, false)
	p1, _ := m.Translate(0, 2, PageDedup, false)
	if p0 == p1 {
		t.Error("different content ids share a frame")
	}
}

// TestTLBCollisionCorrectness takes two distinct (vm, vpage) keys that
// shared a slot of the direct-mapped translation cache the page table
// used to have (the reference model's refTLBIndex) and checks that
// each always translates to its own established physical page.
func TestTLBCollisionCorrectness(t *testing.T) {
	vm1, vm2 := 1, 2
	vpage1 := uint64(0x12345)
	// XOR-cancel the folded vm bits: both keys hash identically.
	vpage2 := vpage1 ^ uint64(vm1)<<59 ^ uint64(vm2)<<59
	if refTLBIndex(refKey{vm1, vpage1}) != refTLBIndex(refKey{vm2, vpage2}) {
		t.Fatal("test premise broken: keys do not collide")
	}
	for _, class := range []PageClass{PagePrivate, PageDedup} {
		m := NewMapper(true)
		p1, _ := m.Translate(vm1, vpage1, class, false)
		p2, _ := m.Translate(vm2, vpage2, class, false)
		if class == PagePrivate && p1 == p2 {
			t.Fatalf("class %v: distinct private pages share a frame", class)
		}
		// Alternate between the keys: each must keep its own frame.
		for i := 0; i < 4; i++ {
			if got, _ := m.Translate(vm1, vpage1, class, false); got != p1 {
				t.Fatalf("class %v: (vm%d, %#x) moved from frame %d to %d after collision",
					class, vm1, vpage1, p1, got)
			}
			if got, _ := m.Translate(vm2, vpage2, class, false); got != p2 {
				t.Fatalf("class %v: (vm%d, %#x) moved from frame %d to %d after collision",
					class, vm2, vpage2, p2, got)
			}
		}
	}
}

// TestTLBCollisionCoW: a copy-on-write break on one of two colliding
// deduplicated keys must not leak its private frame to the other.
func TestTLBCollisionCoW(t *testing.T) {
	vm1, vm2 := 3, 5
	vpage1 := uint64(0xBEEF)
	vpage2 := vpage1 ^ uint64(vm1)<<59 ^ uint64(vm2)<<59
	if refTLBIndex(refKey{vm1, vpage1}) != refTLBIndex(refKey{vm2, vpage2}) {
		t.Fatal("test premise broken: keys do not collide")
	}
	m := NewMapper(true)
	shared1, _ := m.Translate(vm1, vpage1, PageDedup, false)
	// vm1 writes: breaks sharing, gets a private frame.
	broken, cow := m.Translate(vm1, vpage1, PageDedup, true)
	if !cow || broken == shared1 {
		t.Fatalf("write did not break sharing: cow=%v frame %d -> %d", cow, shared1, broken)
	}
	// vm2 reads its own (colliding, different content id) page: must
	// see its own shared frame, never vm1's private copy.
	p2, _ := m.Translate(vm2, vpage2, PageDedup, false)
	if p2 == broken {
		t.Fatal("colliding key resolved to another VM's CoW frame")
	}
	if got, _ := m.Translate(vm1, vpage1, PageDedup, false); got != broken {
		t.Fatalf("vm1 lost its CoW frame after collision: %d vs %d", got, broken)
	}
}
