package memctrl

import "repro/internal/sim"

// This file keeps the page table the dense one replaced — Go maps
// behind a direct-mapped translation cache, consulted on every
// reference — as the reference model for the mapper's differential
// test. Frames, copy-on-write flags, counters and allocation order are
// defined by it.

type refKey struct {
	vm    int
	vpage uint64
}

// refTLBSize is the size of the mapper's direct-mapped translation cache
// (power of two). Collisions simply fall back to the map-based path.
const refTLBSize = 8192

// refTLBEntry caches one established (vm, vpage, class) -> phys mapping.
// writeSafe is false for a deduplicated page still resolved to the
// shared frame: a write to it must take the slow path to break the
// sharing (copy-on-write). until bounds the entry's validity: zero
// means forever; a nonzero value marks a pending copy-on-write break
// whose new frame becomes visible at that cycle, so lookups at or past
// it must re-resolve through the maps.
type refTLBEntry struct {
	vm        int32
	class     int8
	writeSafe bool
	vpage     uint64
	phys      uint64
	until     sim.Time
}

// refMapper is the hypervisor page table: it maps (vm, virtual page) to
// physical pages, merging identical read-only pages across VMs when
// deduplication is enabled, and breaking the sharing with copy-on-write
// when a deduplicated page is written. A break's new frame becomes
// visible to readers only delay cycles later (SetCoWDelay).
type refMapper struct {
	dedup      bool
	nextPhys   uint64
	private    map[refKey]uint64
	shared     map[uint64]uint64   // content id (vpage) -> phys page
	cowRes     map[refKey]uint64   // reserved CoW frame per dedup pair
	cowAt      map[refKey]sim.Time // break visibility time; presence = broken
	cowNext    uint64
	sharedSeen map[refKey]bool // (vm, vpage) pairs already counted
	delay      sim.Time        // read visibility delay of a CoW break
	tlb        []refTLBEntry   // direct-mapped front cache

	// Statistics.
	PrivatePages uint64
	SharedPages  uint64 // deduplicated physical pages
	DedupRefs    uint64 // (vm, vpage) pairs resolved to a shared page
	CoWBreaks    uint64
}

// newRefMapper returns a reference mapper with deduplication enabled or disabled.
func newRefMapper(dedup bool) *refMapper {
	m := &refMapper{
		dedup:      dedup,
		private:    make(map[refKey]uint64),
		shared:     make(map[uint64]uint64),
		cowRes:     make(map[refKey]uint64),
		cowAt:      make(map[refKey]sim.Time),
		sharedSeen: make(map[refKey]bool),
		tlb:        make([]refTLBEntry, refTLBSize),
	}
	m.flushTLB()
	return m
}

// flushTLB invalidates every TLB entry.
func (m *refMapper) flushTLB() {
	for i := range m.tlb {
		m.tlb[i] = refTLBEntry{vm: -1}
	}
}

// SetCoWDelay sets the visibility delay of copy-on-write breaks: a
// break at cycle t resolves readers to the old shared frame until t +
// delay. Zero (the default) is immediate visibility. The system sets
// one mesh hop here.
func (m *refMapper) SetCoWDelay(d sim.Time) { m.delay = d }

func (m *refMapper) allocPhys() uint64 {
	p := m.nextPhys
	m.nextPhys++
	return p
}

// reserveCoW assigns the pair its predetermined copy-on-write frame.
// Pairs are first seen at construction, so the reservation order is
// deterministic.
func (m *refMapper) reserveCoW(key refKey) {
	m.cowRes[key] = cowFrameBase + m.cowNext
	m.cowNext++
}

// Translate maps a virtual page of a VM to a physical page at cycle 0:
// the construction-time form of TranslateAt.
func (m *refMapper) Translate(vm int, vpage uint64, class PageClass, write bool) (phys uint64, cow bool) {
	return m.TranslateAt(vm, vpage, class, write, 0)
}

// TranslateAt maps a virtual page of a VM to a physical page, as seen
// at cycle now. write triggers copy-on-write on
// deduplicated pages. The returned cow flag reports that this call
// broke a sharing (the caller may account a page-copy cost).
//
// A direct-mapped cache sits in front of the page-table maps:
// once a mapping is established (and, for deduplicated pages, once any
// copy-on-write has resolved and become visible) the maps are never
// consulted again for it. First touches and CoW-breaking writes always
// reach the slow path, so the mapper's statistics and allocation order
// are unchanged.
func (m *refMapper) TranslateAt(vm int, vpage uint64, class PageClass, write bool, now sim.Time) (phys uint64, cow bool) {
	e := &m.tlb[refTLBIndex(refKey{vm, vpage})]
	if e.vpage == vpage && e.vm == int32(vm) && e.class == int8(class) &&
		(e.writeSafe || !write) && (e.until == 0 || now < e.until) {
		return e.phys, false
	}
	phys, cow, writeSafe, until, cache := m.translateSlow(vm, vpage, class, write, now)
	if cache {
		// Writes inside a pending break are not cached: their frame is
		// not readable until the visibility time, and the shootdown a
		// break issued would be undone by the refill.
		*e = refTLBEntry{vm: int32(vm), class: int8(class), writeSafe: writeSafe,
			vpage: vpage, phys: phys, until: until}
	}
	return phys, cow
}

func (m *refMapper) translateSlow(vm int, vpage uint64, class PageClass, write bool, now sim.Time) (phys uint64, cow, writeSafe bool, until sim.Time, cache bool) {
	key := refKey{vm, vpage}
	if class != PageDedup || !m.dedup {
		if p, ok := m.private[key]; ok {
			return p, false, true, 0, true
		}
		p := m.allocPhys()
		m.private[key] = p
		m.PrivatePages++
		return p, false, true, 0, true
	}
	// Deduplicated page: one physical copy per content id unless this
	// VM broke it with a (visible) write.
	vAt, broken := m.cowAt[key]
	if broken && now >= vAt {
		return m.cowRes[key], false, true, 0, true
	}
	sp, known := m.shared[vpage]
	if !write && known && m.sharedSeen[key] {
		if broken {
			// Pending break: readers resolve to the shared frame until
			// the new copy becomes visible.
			return sp, false, false, vAt, true
		}
		return sp, false, false, 0, true
	}
	// First touch of the pair, or a write.
	if !known {
		sp = m.allocPhys()
		m.shared[vpage] = sp
		m.SharedPages++
		m.sharedSeen[key] = true
		m.reserveCoW(key)
	} else if !m.sharedSeen[key] {
		// A new VM maps an already-deduplicated page: one page saved.
		m.sharedSeen[key] = true
		m.DedupRefs++
		m.reserveCoW(key)
	}
	if !write {
		return sp, false, false, 0, true
	}
	frame := m.cowRes[key]
	nv := now + m.delay
	if broken {
		// A second writer inside the visibility window: the break
		// already counted; keep the earliest visibility time.
		if nv < vAt {
			m.cowAt[key] = nv
			m.shootdown(key)
		}
		return frame, false, true, 0, false
	}
	m.cowAt[key] = nv
	m.CoWBreaks++
	m.shootdown(key)
	return frame, true, true, 0, false
}

// refTLBIndex is the TLB slot of a (vm, vpage) pair.
func refTLBIndex(key refKey) uint64 {
	return (key.vpage ^ uint64(key.vm)<<59) * 0x9E3779B97F4A7C15 >> 32 & (refTLBSize - 1)
}

// shootdown invalidates the TLB slot of a broken pair.
func (m *refMapper) shootdown(key refKey) { m.tlb[refTLBIndex(key)] = refTLBEntry{vm: -1} }
