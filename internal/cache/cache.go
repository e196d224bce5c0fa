// Package cache provides the storage structures of a tile: generic
// set-associative arrays with protocol metadata (L1, L2, and the
// NCID-style directory cache), MSHRs, and the pointer caches (L1C$,
// L2C$) that Direct Coherence protocols add.
package cache

import "unsafe"

// Addr is a block-aligned physical address: the 40-bit physical address
// of the paper shifted right by 6 (64-byte blocks).
type Addr uint64

// State is a protocol-defined line state. Zero is always Invalid.
type State uint8

// Invalid marks an unused line; all protocols share it.
const Invalid State = 0

// Line is one cache entry. The metadata fields are interpreted by the
// owning protocol:
//
//   - Sharers: a full-map bit vector (flat directory, DiCo) or an
//     area-local bit vector (DiCo-Providers, DiCo-Arin).
//   - Owner: a GenPo — the tile currently holding ownership (-1 none).
//   - ProPos: one provider pointer per area (index within the area,
//     -1 none); only the provider-based protocols use it.
//   - AreaTag: for DiCo-Arin's home entries, the area the sharer vector
//     refers to (-1 when the block is shared between areas).
//
// Field order packs the struct into 32 bytes (wide fields first); the
// pool record that carries a Line adds its way index, for 40 bytes per
// way a run actually uses.
type Line struct {
	Addr    Addr
	Sharers uint64
	ProPos  [MaxSimAreas]int8
	Owner   int16
	State   State
	Dirty   bool
	AreaTag int8
}

// MaxSimAreas bounds the number of areas the cycle simulator supports
// per chip (the analytic storage model in internal/storage has no such
// bound).
const MaxSimAreas = 8

// ResetMeta clears the protocol metadata, leaving Addr/State alone.
func (l *Line) ResetMeta() {
	l.Dirty = false
	l.Sharers = 0
	l.Owner = -1
	l.ProPos = [MaxSimAreas]int8{-1, -1, -1, -1, -1, -1, -1, -1}
	l.AreaTag = -1
}

// Valid reports whether the line holds a block.
func (l *Line) Valid() bool { return l.State != Invalid }

// lineRec is the pool record of one Cache way: the Line engines hold
// pointers to, and the way it belongs to, so Fill, Touch and
// InvalidateLine find the way without a search. Line comes first, so a
// *Line handed out by the cache converts back to its record.
type lineRec struct {
	Line
	way uint32
}

// Cache is a set-associative array with true-LRU replacement. Each way
// is one packed probe word (see pool.go): the tag, so a probe reads 8
// bytes per way — an 8-way set is one cache line of tag traffic — and
// the reference to the way's Line in the cache's pool. A way is bound
// to a pooled Line the first time Probe or Victim hands it out and
// keeps it, so a tag hit always finds a bound way and the line storage
// grows with the ways a run uses rather than with capacity. The LRU
// stamps live in a parallel array touched only on a hit, a fill or a
// full-set victim scan. Only Fill and the invalidations change a way's
// tag. Lines get their metadata defaults from ResetMeta at Fill time;
// a freshly bound Line is all zero.
type Cache struct {
	// The fields a probe reads come first, so they share CPU cache lines.
	tags  []uint64
	lru   []uint64
	lines pool[lineRec]
	mask  Addr // sets-1
	ways  int
	shift uint
	stamp uint64

	// Accesses counts lookups; the power model charges tag energy per
	// lookup and data energy separately (callers report data accesses
	// through their own event counters).
	Accesses uint64
	Misses   uint64

	// handed and handedWay remember the line Probe or Victim last chose
	// for a fill, so the Fill that usually follows finds its way without
	// loading the way index from a record that is likely not in the CPU
	// cache. A record never changes way, so the memo cannot go stale.
	// The address is kept as a uintptr: the pool keeps the record alive.
	handed    uintptr
	handedWay int

	bound int // ways bound to a pooled Line
	name  string
}

// New returns a cache with numSets sets of ways ways. numSets must be a
// power of two so the index can be masked from the address.
func New(name string, numSets, ways int) *Cache {
	checkGeometry(name, numSets, ways)
	return &Cache{
		name: name,
		mask: Addr(numSets - 1),
		ways: ways,
		tags: make([]uint64, numSets*ways),
		lru:  make([]uint64, numSets*ways),
	}
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.mask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the number of lines.
func (c *Cache) Capacity() int { return len(c.tags) }

func (c *Cache) setOf(a Addr) int { return int(a >> c.shift & c.mask) }

// SetIndexShift makes the set index use address bits above the given
// shift. Structures private to one home bank must skip the bank-select
// bits: those are constant within the bank, and indexing with them
// would leave all but 1/2^shift of the sets unused.
func (c *Cache) SetIndexShift(shift uint) { c.shift = shift }

// line returns the Line of a bound way's probe word.
func (c *Cache) line(t uint64) *Line {
	return &c.lines[t&refMask>>chunkShift][uint8(t)].Line
}

// word returns way i's probe word, binding the way to a pooled Line
// first if it has none.
func (c *Cache) word(i int) uint64 {
	if t := c.tags[i]; t&refMask != 0 {
		return t
	}
	return c.bind(i)
}

// bind gives the unbound way i a fresh Line from the pool and returns
// its new probe word. It is the only allocation point and stays out of
// line, off the probe paths.
//
//go:noinline
func (c *Cache) bind(i int) uint64 {
	c.bound++
	ref := uint64(c.bound)
	c.lines.claim(ref).way = uint32(i)
	c.tags[i] |= ref
	return c.tags[i]
}

// Lookup returns the line holding a, or nil. It counts an access and
// refreshes LRU on hit. A tag hit implies a bound way, so the hit
// takes the Line's address straight from the probe word. The loop and
// the spelled-out address keep Lookup within the compiler's inlining
// budget.
func (c *Cache) Lookup(a Addr) *Line {
	c.Accesses++
	base := c.setOf(a) * c.ways
	for w, t := range c.tags[base:][:c.ways] {
		if t>>refBits == uint64(a)+1 {
			c.stamp++
			c.lru[base+w] = c.stamp
			return &c.lines[t&refMask>>chunkShift][uint8(t)].Line
		}
	}
	c.Misses++
	return nil
}

// Peek is Lookup without access accounting or LRU update; for
// invariant checks and statistics.
func (c *Cache) Peek(a Addr) *Line {
	base := c.setOf(a) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t>>refBits == uint64(a)+1 {
			return c.line(t)
		}
	}
	return nil
}

// Probe is Peek and Victim fused into one scan of the set, for the
// lookup-then-fill pattern: hit=true means a is present and l is its
// line (untouched: the caller decides on accounting). On a miss l is
// the way Victim would pick — the first empty way (valid=false) or the
// LRU way (valid=true) — so Probe is bit-identical to Peek followed by
// Victim at half the probe traffic.
func (c *Cache) Probe(a Addr) (l *Line, hit, valid bool) {
	base := c.setOf(a) * c.ways
	empty := -1
	for w, t := range c.tags[base : base+c.ways] {
		if t>>refBits == uint64(a)+1 {
			return c.line(t), true, true
		}
		if t>>refBits == 0 && empty < 0 {
			empty = base + w
		}
	}
	if empty >= 0 {
		return c.handOut(empty), false, false
	}
	return c.handOut(lruWay(c.lru, base, c.ways)), false, true
}

// Victim returns the line that would be replaced to make room for a —
// an invalid way if one exists (valid=false), else the LRU way
// (valid=true). A valid victim still holds its old contents; the caller
// handles the eviction protocol before calling Fill.
func (c *Cache) Victim(a Addr) (victim *Line, valid bool) {
	base := c.setOf(a) * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t>>refBits == 0 {
			return c.handOut(base + w), false
		}
	}
	return c.handOut(lruWay(c.lru, base, c.ways)), true
}

// handOut returns way i's Line as the way to fill, binding the way
// first if it has none, and remembers the pair for Fill.
func (c *Cache) handOut(i int) *Line {
	l := c.line(c.word(i))
	c.handed, c.handedWay = uintptr(unsafe.Pointer(l)), i
	return l
}

// Fill installs block a into line l (previously obtained from Victim)
// with the given state, resetting metadata and refreshing LRU. It
// panics if a is not below AddrLimit.
func (c *Cache) Fill(l *Line, a Addr, s State) {
	if a >= AddrLimit {
		panic(addrError{c.name, a})
	}
	idx := c.indexOf(l)
	l.Addr = a
	l.State = s
	l.ResetMeta()
	c.tags[idx] = c.tags[idx]&refMask | tagOf(a)
	c.stamp++
	c.lru[idx] = c.stamp
}

// Touch refreshes the LRU position of l.
func (c *Cache) Touch(l *Line) {
	idx := c.indexOf(l)
	c.stamp++
	c.lru[idx] = c.stamp
}

// indexOf returns the way of a line handed out by
// Lookup/Peek/Probe/Victim: the memo's, or else the one read from its
// pool record; a line the way does not own is a bug.
func (c *Cache) indexOf(l *Line) int {
	if uintptr(unsafe.Pointer(l)) == c.handed {
		return c.handedWay
	}
	idx := int((*lineRec)(unsafe.Pointer(l)).way)
	if idx >= len(c.tags) || c.line(c.tags[idx]) != l {
		panic("cache: foreign line")
	}
	return idx
}

// Invalidate removes block a if present, returning the prior line
// contents and whether it was present. The way keeps its pooled Line.
func (c *Cache) Invalidate(a Addr) (Line, bool) {
	base := c.setOf(a) * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t>>refBits == uint64(a)+1 {
			l := c.line(t)
			old := *l
			l.State = Invalid
			l.ResetMeta()
			c.tags[base+w] = t & refMask
			return old, true
		}
	}
	return Line{}, false
}

// InvalidateLine removes a valid line previously located by
// Lookup/Peek/Probe, returning its prior contents. It is Invalidate
// without the set scan — the caller already paid for the probe.
func (c *Cache) InvalidateLine(l *Line) Line {
	idx := c.indexOf(l)
	old := *l
	l.State = Invalid
	l.ResetMeta()
	c.tags[idx] &= refMask
	return old
}

// CountValid returns the number of valid lines (for occupancy stats).
func (c *Cache) CountValid() int {
	n := 0
	for _, t := range c.tags {
		if t>>refBits != 0 {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line. fn must not insert or
// invalidate lines.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for _, t := range c.tags {
		if t>>refBits != 0 {
			fn(c.line(t))
		}
	}
}
