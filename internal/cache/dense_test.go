package cache

import "unsafe"

// This file keeps the dense layout the pooled Cache and DirCache
// replaced — a Line (or directory entry) per way, allocated up front —
// as reference models for the differential tests. Victim choice, LRU
// and the dense contents form are defined by these.

type denseCache struct {
	sets, ways int
	shift      uint
	lines      []Line
	tags       []Addr
	lru        []uint64
	stamp      uint64
	Accesses   uint64
	Misses     uint64
}

func newDenseCache(numSets, ways int) *denseCache {
	return &denseCache{
		sets:  numSets,
		ways:  ways,
		lines: make([]Line, numSets*ways),
		tags:  make([]Addr, numSets*ways),
		lru:   make([]uint64, numSets*ways),
	}
}

func (c *denseCache) setOf(a Addr) int { return int((uint64(a) >> c.shift) & uint64(c.sets-1)) }

func (c *denseCache) Lookup(a Addr) *Line {
	c.Accesses++
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			c.stamp++
			c.lru[base+w] = c.stamp
			return &c.lines[base+w]
		}
	}
	c.Misses++
	return nil
}

func (c *denseCache) Peek(a Addr) *Line {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			return &c.lines[base+w]
		}
	}
	return nil
}

func (c *denseCache) Probe(a Addr) (l *Line, hit, valid bool) {
	if l := c.Peek(a); l != nil {
		return l, true, true
	}
	l, valid = c.Victim(a)
	return l, false, valid
}

func (c *denseCache) Victim(a Addr) (*Line, bool) {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			return &c.lines[base+w], false
		}
	}
	victimIdx := base
	for w := 1; w < c.ways; w++ {
		if c.lru[base+w] < c.lru[victimIdx] {
			victimIdx = base + w
		}
	}
	return &c.lines[victimIdx], true
}

func (c *denseCache) Fill(l *Line, a Addr, s State) {
	l.Addr = a
	l.State = s
	l.ResetMeta()
	idx := c.indexOf(l)
	c.tags[idx] = a + 1
	c.stamp++
	c.lru[idx] = c.stamp
}

func (c *denseCache) Touch(l *Line) {
	c.stamp++
	c.lru[c.indexOf(l)] = c.stamp
}

func (c *denseCache) indexOf(l *Line) int {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.lines)))
	idx := int(off / unsafe.Sizeof(Line{}))
	if idx < 0 || idx >= len(c.lines) || &c.lines[idx] != l {
		panic("dense: foreign line")
	}
	return idx
}

func (c *denseCache) Invalidate(a Addr) (Line, bool) {
	if l := c.Peek(a); l != nil {
		return c.InvalidateLine(l), true
	}
	return Line{}, false
}

func (c *denseCache) InvalidateLine(l *Line) Line {
	old := *l
	l.State = Invalid
	l.ResetMeta()
	c.tags[c.indexOf(l)] = 0
	return old
}

func (c *denseCache) CountValid() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

func (c *denseCache) ForEachValid(fn func(*Line)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(&c.lines[i])
		}
	}
}

func (c *denseCache) contents() *contents {
	return &contents{
		Lines:    append([]Line(nil), c.lines...),
		LRU:      append([]uint64(nil), c.lru...),
		Stamp:    c.stamp,
		Accesses: c.Accesses,
		Misses:   c.Misses,
	}
}

// denseDirEntry is the reference directory way: LRU stamp interleaved
// with the directory fields.
type denseDirEntry struct {
	lru     uint64
	Sharers uint64
	Owner   int16
}

type denseDirCache struct {
	sets, ways int
	shift      uint
	tags       []Addr
	ents       []denseDirEntry
	stamp      uint64
}

func newDenseDirCache(numSets, ways int) *denseDirCache {
	return &denseDirCache{
		sets: numSets,
		ways: ways,
		tags: make([]Addr, numSets*ways),
		ents: make([]denseDirEntry, numSets*ways),
	}
}

func (c *denseDirCache) setOf(a Addr) int { return int((uint64(a) >> c.shift) & uint64(c.sets-1)) }

func (c *denseDirCache) Peek(a Addr) *denseDirEntry {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			return &c.ents[base+w]
		}
	}
	return nil
}

func (c *denseDirCache) Probe(a Addr) (e *denseDirEntry, victimAddr Addr, hit, valid bool) {
	if e := c.Peek(a); e != nil {
		return e, 0, true, true
	}
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			return &c.ents[base+w], 0, false, false
		}
	}
	victimIdx := base
	for w := 1; w < c.ways; w++ {
		if c.ents[base+w].lru < c.ents[victimIdx].lru {
			victimIdx = base + w
		}
	}
	return &c.ents[victimIdx], c.tags[victimIdx] - 1, false, true
}

func (c *denseDirCache) Touch(e *denseDirEntry) {
	c.stamp++
	e.lru = c.stamp
}

func (c *denseDirCache) Fill(e *denseDirEntry, a Addr) {
	c.tags[c.indexOf(e)] = a + 1
	c.stamp++
	e.lru = c.stamp
}

func (c *denseDirCache) indexOf(e *denseDirEntry) int {
	off := uintptr(unsafe.Pointer(e)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.ents)))
	return int(off / unsafe.Sizeof(denseDirEntry{}))
}

func (c *denseDirCache) contents() *contents {
	ct := &contents{
		Lines: make([]Line, len(c.ents)),
		LRU:   make([]uint64, len(c.ents)),
		Stamp: c.stamp,
	}
	for i := range c.ents {
		ct.LRU[i] = c.ents[i].lru
		if c.tags[i] != 0 {
			ct.Lines[i] = dirLine(c.tags[i]-1, c.ents[i].Sharers, c.ents[i].Owner)
		}
	}
	return ct
}

// contents is the dense form both models are compared in: one Line
// per way (a zero Line for a way never handed out), the LRU stamps and
// the counters.
type contents struct {
	Lines    []Line
	LRU      []uint64
	Stamp    uint64
	Accesses uint64
	Misses   uint64
}

// cacheContents reads a pooled Cache in the dense form.
func cacheContents(c *Cache) *contents {
	ct := &contents{
		Lines:    make([]Line, len(c.tags)),
		LRU:      append([]uint64(nil), c.lru...),
		Stamp:    c.stamp,
		Accesses: c.Accesses,
		Misses:   c.Misses,
	}
	for i, t := range c.tags {
		if t&refMask != 0 {
			ct.Lines[i] = *c.line(t)
		}
	}
	return ct
}

// dirContents reads a pooled DirCache in the dense form, as the Lines
// a generic Cache of the same geometry would hold: filled ways carry
// the tracked block, state 1 and ResetMeta defaults.
func dirContents(c *DirCache) *contents {
	ct := &contents{
		Lines:    make([]Line, len(c.tags)),
		LRU:      append([]uint64(nil), c.lru...),
		Stamp:    c.stamp,
		Accesses: c.Accesses,
		Misses:   c.Misses,
	}
	for i, t := range c.tags {
		if t>>refBits != 0 {
			e := c.entry(t)
			ct.Lines[i] = dirLine(Addr(t>>refBits)-1, e.Sharers, e.Owner)
		}
	}
	return ct
}

func dirLine(a Addr, sharers uint64, owner int16) Line {
	l := Line{Addr: a, State: 1}
	l.ResetMeta()
	l.Sharers, l.Owner = sharers, owner
	return l
}
