// Package memctrl models the off-chip memory system: the eight memory
// controllers on the chip borders (Table III: 300-cycle latency plus a
// small random delay) and the hypervisor's content-based page
// deduplication with copy-on-write.
package memctrl

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BlocksPerPage is the number of 64-byte blocks in a 4 KB page.
const BlocksPerPage = 64

// Controllers places and times the chip's memory controllers.
type Controllers struct {
	tiles   []topo.Tile
	latency sim.Time
	jitter  int
	rng     *sim.Rand

	Reads  uint64
	Writes uint64
}

// BorderTiles returns n controller positions spread along the top and
// bottom borders of the grid (the paper places 8 along the borders of
// the 8x8 chip).
func BorderTiles(grid topo.Grid, n int) []topo.Tile {
	if n <= 0 {
		panic("memctrl: need at least one controller")
	}
	tiles := make([]topo.Tile, 0, n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		x := i * grid.Cols / half
		tiles = append(tiles, grid.At(x, 0))
	}
	for i := 0; i < n-half; i++ {
		x := i*grid.Cols/(n-half) + grid.Cols/(2*(n-half))
		tiles = append(tiles, grid.At(x, grid.Rows-1))
	}
	return tiles
}

// New returns controllers at the given tiles with base latency and a
// uniform random extra delay in [0, jitter].
func New(tiles []topo.Tile, latency sim.Time, jitter int, rng *sim.Rand) *Controllers {
	if len(tiles) == 0 {
		panic("memctrl: no controller tiles")
	}
	return &Controllers{tiles: tiles, latency: latency, jitter: jitter, rng: rng}
}

// Default returns the paper's configuration: 8 border controllers,
// 300 cycles plus up to 16 cycles of jitter.
func Default(grid topo.Grid, rng *sim.Rand) *Controllers {
	return New(BorderTiles(grid, 8), 300, 16, rng)
}

// For returns the controller tile responsible for block address a
// (address-interleaved).
func (c *Controllers) For(a cache.Addr) topo.Tile {
	return c.tiles[uint64(a)%uint64(len(c.tiles))]
}

// Tiles returns the controller positions (shared slice; do not mutate).
func (c *Controllers) Tiles() []topo.Tile { return c.tiles }

// ReadLatency samples the DRAM access time for a read and counts it.
func (c *Controllers) ReadLatency() sim.Time {
	c.Reads++
	return c.sample()
}

// WriteLatency samples the DRAM access time for a writeback and counts
// it.
func (c *Controllers) WriteLatency() sim.Time {
	c.Writes++
	return c.sample()
}

func (c *Controllers) sample() sim.Time {
	d := c.latency
	if c.jitter > 0 {
		d += sim.Time(c.rng.Intn(c.jitter + 1))
	}
	return d
}

// PageClass classifies a virtual page for the deduplication model.
type PageClass int

// Page classes: private to one thread, shared within one VM, or
// deduplicated read-only content identical across VMs.
const (
	PagePrivate PageClass = iota
	PageVMShared
	PageDedup
)

// cowFrameBase is the physical page number of the first reserved
// copy-on-write frame. CoW frames are reserved at page-table
// construction (one per deduplicated (vm, vpage) pair, in construction
// order) so a break at run time activates a predetermined frame instead
// of drawing from the shared allocator, so the frame number does not
// depend on break order. Regular frames stay far below this base, and
// block addresses stay under 2^40.
const cowFrameBase = 1 << 30

// never is the visibility time of a deduplicated pair whose sharing is
// unbroken: its own frame is not visible at any cycle.
const never = ^sim.Time(0)

// Page is the handle of one established (vm, vpage) pair: an index into
// the mapper's dense page table. Handles are assigned in establishment
// order and stay valid for the mapper's lifetime.
type Page int32

// pairKey names a (vm, vpage) pair at establishment. dedup marks a pair
// resolved through the content-id map, which has state of its own even
// if the same pair is also mapped privately.
type pairKey struct {
	vpage uint64
	vm    int32
	dedup bool
}

// pageEntry is the page-table record of one pair. From cycle at on the
// pair resolves to own; before at it resolves to shared. A private pair
// has own == shared and at 0. A deduplicated pair resolves to the
// content's shared frame, own is its reserved copy-on-write frame, and
// at is never until a write breaks the sharing and sets it to the cycle
// the copy becomes visible. Frames fit 32 bits: there are fewer than
// 2^31 pairs (Page is an int32), so regular frames stay below 2^31 and
// copy-on-write frames below cowFrameBase + 2^31.
type pageEntry struct {
	shared, own uint32
	at          sim.Time
}

// Mapper is the hypervisor page table: it maps (vm, virtual page) to
// physical pages, merging identical read-only pages across VMs when
// deduplication is enabled, and breaking the sharing with copy-on-write
// when a deduplicated page is written. A break's new frame becomes
// visible to readers only delay cycles later (SetCoWDelay).
//
// Pairs are established once (Establish), which allocates their
// frames, and then translated through their handle (TranslatePage):
// the per-reference path is one indexed load, with no hashing.
type Mapper struct {
	dedup    bool
	nextPhys uint64
	cowNext  uint64
	delay    sim.Time // read visibility delay of a CoW break

	pages  []pageEntry
	index  map[pairKey]Page  // establishment only
	shared map[uint64]uint64 // content id (vpage) -> phys page

	// Statistics.
	PrivatePages uint64
	SharedPages  uint64 // deduplicated physical pages
	DedupRefs    uint64 // (vm, vpage) pairs resolved to a shared page
	CoWBreaks    uint64
}

// NewMapper returns a mapper with deduplication enabled or disabled.
func NewMapper(dedup bool) *Mapper {
	return &Mapper{
		dedup:  dedup,
		index:  make(map[pairKey]Page),
		shared: make(map[uint64]uint64),
	}
}

// DedupEnabled reports whether deduplication is on.
func (m *Mapper) DedupEnabled() bool { return m.dedup }

// SetCoWDelay sets the visibility delay of copy-on-write breaks: a
// break at cycle t resolves readers to the old shared frame until t +
// delay. Zero (the default) is immediate visibility. The system sets
// one mesh hop here.
func (m *Mapper) SetCoWDelay(d sim.Time) { m.delay = d }

func (m *Mapper) allocPhys() uint64 {
	p := m.nextPhys
	m.nextPhys++
	return p
}

// Establish maps a virtual page of a VM and returns its handle. The
// first call for a pair allocates: a private frame, or for a
// deduplicated page the content's shared frame on its first VM (later
// VMs count a DedupRefs each) plus the pair's reserved copy-on-write
// frame. Later calls return the same handle.
func (m *Mapper) Establish(vm int, vpage uint64, class PageClass) Page {
	key := pairKey{vpage, int32(vm), class == PageDedup && m.dedup}
	if pg, ok := m.index[key]; ok {
		return pg
	}
	e := pageEntry{}
	if !key.dedup {
		e.shared = uint32(m.allocPhys())
		e.own = e.shared
		m.PrivatePages++
	} else {
		sp, known := m.shared[vpage]
		if !known {
			sp = m.allocPhys()
			m.shared[vpage] = sp
			m.SharedPages++
		} else {
			// A new VM maps an already-deduplicated page: one page saved.
			m.DedupRefs++
		}
		e.shared = uint32(sp)
		e.own = uint32(cowFrameBase + m.cowNext)
		m.cowNext++
		e.at = never
	}
	pg := Page(len(m.pages))
	m.pages = append(m.pages, e)
	m.index[key] = pg
	return pg
}

// Translate establishes a virtual page of a VM and translates it at
// cycle 0.
func (m *Mapper) Translate(vm int, vpage uint64, class PageClass, write bool) (phys uint64, cow bool) {
	return m.TranslatePage(m.Establish(vm, vpage, class), write, 0)
}

// TranslatePage maps an established page to its physical page, as seen
// at cycle now. write triggers copy-on-write on deduplicated pages. The
// returned cow flag reports that this call broke a sharing (the caller
// may account a page-copy cost).
func (m *Mapper) TranslatePage(pg Page, write bool, now sim.Time) (phys uint64, cow bool) {
	e := &m.pages[pg]
	if now >= e.at {
		return uint64(e.own), false
	}
	if !write {
		// Unbroken, or a pending break: readers resolve to the shared
		// frame until the copy becomes visible.
		return uint64(e.shared), false
	}
	return m.breakCoW(e, now)
}

// breakCoW handles a write to a deduplicated page whose copy is not yet
// visible. The writer gets its copy at once; readers see it delay
// cycles later.
func (m *Mapper) breakCoW(e *pageEntry, now sim.Time) (phys uint64, cow bool) {
	nv := now + m.delay
	if e.at != never {
		// A second writer inside the visibility window: the break
		// already counted; keep the earliest visibility time.
		e.at = min(e.at, nv)
		return uint64(e.own), false
	}
	e.at = nv
	m.CoWBreaks++
	return uint64(e.own), true
}

// BlockAddr converts a physical page and block offset into a block
// address.
func BlockAddr(physPage uint64, block int) cache.Addr {
	return cache.Addr(physPage*BlocksPerPage + uint64(block))
}

// SavedFraction returns the fraction of physical memory saved by
// deduplication: pages that would have been allocated without dedup
// versus pages actually allocated.
func (m *Mapper) SavedFraction() float64 {
	without := m.PrivatePages + m.SharedPages + m.DedupRefs + m.CoWBreaks
	with := m.nextPhys
	if without == 0 {
		return 0
	}
	return 1 - float64(with)/float64(without)
}
