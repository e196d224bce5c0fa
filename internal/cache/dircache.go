package cache

import "unsafe"

// DirEntry is the pooled payload of one directory-cache way: the
// tracked block's sharer vector and owner pointer, plus the way it
// belongs to, so Fill and Touch find the way without a search. The LRU
// stamps live in the directory cache's dense per-way array, so victim
// scans never touch the pool.
type DirEntry struct {
	Sharers uint64
	Owner   int16
	way     uint32
}

// DirCache is the NCID directory cache: a set-associative array with
// true-LRU replacement, bit-identical in lookup, victim choice and
// accounting to a generic Cache of the same geometry, but storing only
// the directory's working fields. The block identity and pool reference
// live in the packed probe word, exactly as in Cache, so probes scan 8
// bytes per way; a way is bound to a pooled DirEntry the first time
// Probe hands it out and keeps it.
type DirCache struct {
	// The fields a probe reads come first (see Cache).
	tags  []uint64
	lru   []uint64
	ents  pool[DirEntry]
	mask  Addr // sets-1
	ways  int
	shift uint
	stamp uint64

	Accesses uint64
	Misses   uint64

	// handed and handedWay remember the entry Probe last chose for a
	// fill (see Cache.handed).
	handed    uintptr
	handedWay int

	bound int // ways bound to a pooled entry
	name  string
}

// NewDirCache returns a directory cache with numSets sets of ways
// ways. numSets must be a power of two.
func NewDirCache(name string, numSets, ways int) *DirCache {
	checkGeometry(name, numSets, ways)
	return &DirCache{
		name: name,
		mask: Addr(numSets - 1),
		ways: ways,
		tags: make([]uint64, numSets*ways),
		lru:  make([]uint64, numSets*ways),
	}
}

// SetIndexShift makes the set index use address bits above the given
// shift (see Cache.SetIndexShift).
func (c *DirCache) SetIndexShift(shift uint) { c.shift = shift }

func (c *DirCache) setOf(a Addr) int { return int(a >> c.shift & c.mask) }

// entry returns the entry of a bound way's probe word.
func (c *DirCache) entry(t uint64) *DirEntry {
	return &c.ents[t&refMask>>chunkShift][uint8(t)]
}

// word returns way i's probe word, binding the way to a pooled entry
// first if it has none.
func (c *DirCache) word(i int) uint64 {
	if t := c.tags[i]; t&refMask != 0 {
		return t
	}
	return c.bind(i)
}

// bind gives the unbound way i a fresh entry from the pool and returns
// its new probe word.
//
//go:noinline
func (c *DirCache) bind(i int) uint64 {
	c.bound++
	ref := uint64(c.bound)
	c.ents.claim(ref).way = uint32(i)
	c.tags[i] |= ref
	return c.tags[i]
}

// Peek returns the entry tracking a, or nil. No accounting, no LRU
// update.
func (c *DirCache) Peek(a Addr) *DirEntry {
	base := c.setOf(a) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t>>refBits == uint64(a)+1 {
			return c.entry(t)
		}
	}
	return nil
}

// Probe scans the set once for the lookup-then-allocate pattern:
// hit=true means a is tracked and e is its entry (untouched — the
// caller decides on accounting). On a miss e is the way a fill should
// use — the first empty way (valid=false) or the LRU way (valid=true,
// with victimAddr the block it still tracks). The choice is
// bit-identical to Cache.Probe on the same geometry and history.
func (c *DirCache) Probe(a Addr) (e *DirEntry, victimAddr Addr, hit, valid bool) {
	base := c.setOf(a) * c.ways
	empty := -1
	for w, t := range c.tags[base : base+c.ways] {
		if t>>refBits == uint64(a)+1 {
			return c.entry(t), 0, true, true
		}
		if t>>refBits == 0 && empty < 0 {
			empty = base + w
		}
	}
	if empty >= 0 {
		return c.handOut(empty), 0, false, false
	}
	victim := lruWay(c.lru, base, c.ways)
	return c.handOut(victim), Addr(c.tags[victim]>>refBits) - 1, false, true
}

// handOut returns way i's entry as the way to fill, binding the way
// first if it has none, and remembers the pair for Fill.
func (c *DirCache) handOut(i int) *DirEntry {
	e := c.entry(c.word(i))
	c.handed, c.handedWay = uintptr(unsafe.Pointer(e)), i
	return e
}

// Touch refreshes the LRU position of e.
func (c *DirCache) Touch(e *DirEntry) {
	idx := c.indexOf(e)
	c.stamp++
	c.lru[idx] = c.stamp
}

// Fill installs block a into entry e (previously obtained from Probe),
// refreshing LRU. Sharers and Owner are left for the caller to set —
// every allocation site overwrites both immediately. It panics if a is
// not below AddrLimit.
func (c *DirCache) Fill(e *DirEntry, a Addr) {
	if a >= AddrLimit {
		panic(addrError{c.name, a})
	}
	idx := c.indexOf(e)
	c.tags[idx] = c.tags[idx]&refMask | tagOf(a)
	c.stamp++
	c.lru[idx] = c.stamp
}

// indexOf returns the way of an entry handed out by Peek/Probe: the
// memo's, or else the one read from the entry; an entry the way does
// not own is a bug.
func (c *DirCache) indexOf(e *DirEntry) int {
	if uintptr(unsafe.Pointer(e)) == c.handed {
		return c.handedWay
	}
	idx := int(e.way)
	if idx >= len(c.tags) || c.entry(c.tags[idx]) != e {
		panic("cache: foreign directory entry")
	}
	return idx
}
