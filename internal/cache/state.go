package cache

import "fmt"

// This file provides the snapshot surface of the storage structures:
// pure-data state types captured at the warmup/measure boundary and
// restored into freshly built structures of identical geometry. The
// captured form is dense — one Line per way, a zero Line for a way
// that was never handed out — and the probe words are derived state,
// so restore rebuilds them from the copied lines rather than
// serializing them.

// CacheState is the serializable state of a Cache.
type CacheState struct {
	Sets, Ways int
	Lines      []Line
	LRU        []uint64
	Stamp      uint64
	Accesses   uint64
	Misses     uint64
}

// State returns a deep copy of the cache's contents and counters.
func (c *Cache) State() *CacheState {
	st := &CacheState{
		Sets:     c.Sets(),
		Ways:     c.ways,
		Lines:    make([]Line, len(c.tags)),
		LRU:      make([]uint64, len(c.tags)),
		Stamp:    c.stamp,
		Accesses: c.Accesses,
		Misses:   c.Misses,
	}
	for i, t := range c.tags {
		if t&refMask != 0 {
			st.Lines[i] = *c.line(t)
		}
	}
	copy(st.LRU, c.lru)
	return st
}

// RestoreState overwrites the cache's contents and counters with a
// captured state. The geometry must match the cache's construction.
// Only the ways whose captured line is non-zero are bound to a pooled
// Line; a way that is already bound keeps its Line and takes the
// captured contents.
func (c *Cache) RestoreState(st *CacheState) error {
	if err := st.check(c.name, c.Sets(), c.ways); err != nil {
		return err
	}
	for i := range st.Lines {
		sl := &st.Lines[i]
		c.tags[i] &= refMask
		if c.tags[i] != 0 || *sl != (Line{}) {
			*c.line(c.word(i)) = *sl
		}
		if sl.Valid() {
			c.tags[i] |= tagOf(sl.Addr)
		}
	}
	copy(c.lru, st.LRU)
	c.stamp = st.Stamp
	c.Accesses = st.Accesses
	c.Misses = st.Misses
	return nil
}

// check reports a state that cannot be restored into a structure of
// the given name and geometry: a different shape, or a valid line whose
// address the packed tag cannot hold.
func (st *CacheState) check(name string, sets, ways int) error {
	if st.Sets != sets || st.Ways != ways {
		return fmt.Errorf("cache %s: geometry mismatch: snapshot %dx%d, cache %dx%d",
			name, st.Sets, st.Ways, sets, ways)
	}
	if len(st.Lines) != sets*ways || len(st.LRU) != sets*ways {
		return fmt.Errorf("cache %s: snapshot size mismatch", name)
	}
	for i := range st.Lines {
		if l := &st.Lines[i]; l.Valid() && l.Addr >= AddrLimit {
			return fmt.Errorf("cache %s: snapshot block address %#x beyond the tag limit", name, l.Addr)
		}
	}
	return nil
}

// PointerCacheState is the serializable state of a PointerCache.
type PointerCacheState struct {
	Sets, Ways int
	Addrs      []Addr
	Ptrs       []int16
	Valid      []bool
	LRU        []uint64
	Stamp      uint64
	Accesses   uint64
	Hits       uint64
	Updates    uint64
}

// State returns a deep copy of the pointer cache's contents. Addrs and
// Valid are derived from the tags; an invalid entry captures address 0.
func (p *PointerCache) State() *PointerCacheState {
	st := &PointerCacheState{
		Sets: p.sets, Ways: p.ways,
		Addrs:    make([]Addr, len(p.tags)),
		Ptrs:     make([]int16, len(p.ptrs)),
		Valid:    make([]bool, len(p.tags)),
		LRU:      make([]uint64, len(p.lru)),
		Stamp:    p.stamp,
		Accesses: p.Accesses,
		Hits:     p.Hits,
		Updates:  p.Updates,
	}
	for i, t := range p.tags {
		if t != 0 {
			st.Addrs[i] = t - 1
			st.Valid[i] = true
		}
	}
	copy(st.Ptrs, p.ptrs)
	copy(st.LRU, p.lru)
	return st
}

// RestoreState overwrites the pointer cache's contents with a captured
// state of identical geometry.
func (p *PointerCache) RestoreState(st *PointerCacheState) error {
	if st.Sets != p.sets || st.Ways != p.ways {
		return fmt.Errorf("cache %s: geometry mismatch: snapshot %dx%d, cache %dx%d",
			p.name, st.Sets, st.Ways, p.sets, p.ways)
	}
	n := len(p.tags)
	if len(st.Addrs) != n || len(st.Valid) != n || len(st.Ptrs) != n || len(st.LRU) != n {
		return fmt.Errorf("cache %s: snapshot size mismatch", p.name)
	}
	for i, v := range st.Valid {
		p.tags[i] = 0
		if v {
			p.tags[i] = st.Addrs[i] + 1
		}
	}
	copy(p.ptrs, st.Ptrs)
	copy(p.lru, st.LRU)
	p.stamp = st.Stamp
	p.Accesses = st.Accesses
	p.Hits = st.Hits
	p.Updates = st.Updates
	return nil
}

// MSHRState carries the MSHR's cumulative counters. In-flight entries
// hold completion closures and cannot be serialized, so capture
// requires an empty MSHR (the warmup/measure boundary guarantees it).
type MSHRState struct {
	Allocations uint64
	FullStalls  uint64
}

// State captures the MSHR counters; it fails if misses are in flight.
func (m *MSHR) State() (MSHRState, error) {
	if n := m.Outstanding(); n > 0 {
		return MSHRState{}, fmt.Errorf("cache: MSHR not quiescent: %d misses in flight", n)
	}
	return MSHRState{Allocations: m.Allocations, FullStalls: m.FullStalls}, nil
}

// RestoreState overwrites the MSHR counters; the MSHR must be empty.
func (m *MSHR) RestoreState(st MSHRState) error {
	if n := m.Outstanding(); n > 0 {
		return fmt.Errorf("cache: cannot restore into an MSHR with %d misses in flight", n)
	}
	m.Allocations = st.Allocations
	m.FullStalls = st.FullStalls
	return nil
}
