package memctrl

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// This file provides the snapshot surface of the memory system: the
// controllers' DRAM-jitter random stream and read/write totals, and the
// mapper's full page-table, deduplication and TLB state. Map contents
// are exported as slices sorted by key so a captured state serializes
// deterministically.

// ControllersState is the serializable state of the memory controllers.
type ControllersState struct {
	Rand   sim.RandState
	Reads  uint64
	Writes uint64
}

// State captures the controllers' counters and random stream.
func (c *Controllers) State() ControllersState {
	return ControllersState{Rand: c.rng.State(), Reads: c.Reads, Writes: c.Writes}
}

// RestoreState overwrites the controllers' counters and random stream.
func (c *Controllers) RestoreState(st ControllersState) {
	c.rng.SetState(st.Rand)
	c.Reads = st.Reads
	c.Writes = st.Writes
}

// PageEntry is one (vm, vpage) -> phys mapping of the private or
// copy-on-write tables.
type PageEntry struct {
	VM    int
	VPage uint64
	Phys  uint64
}

// SharedEntry is one content-id -> phys mapping of the dedup table.
type SharedEntry struct {
	Content uint64
	Phys    uint64
}

// SeenEntry is one (vm, vpage) pair counted toward dedup savings.
type SeenEntry struct {
	VM    int
	VPage uint64
}

// CoWEntry is one broken deduplicated pair: its reserved frame and the
// cycle the break became (or becomes) visible to readers.
type CoWEntry struct {
	VM        int
	VPage     uint64
	Phys      uint64
	VisibleAt sim.Time
}

// MapperState is the serializable state of the Mapper. The CoW frame
// reservations and the TLB contents are omitted: reservations are
// reconstructed deterministically when the page table is rebuilt at
// construction, and the TLBs are a pure performance cache with no
// counters, so a restored mapper simply starts them cold.
type MapperState struct {
	Dedup    bool
	NextPhys uint64
	Private  []PageEntry
	CoW      []CoWEntry
	Shared   []SharedEntry
	Seen     []SeenEntry

	PrivatePages uint64
	SharedPages  uint64
	DedupRefs    uint64
	CoWBreaks    uint64
}

func sortPages(s []PageEntry) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].VM != s[j].VM {
			return s[i].VM < s[j].VM
		}
		return s[i].VPage < s[j].VPage
	})
}

// State returns a deep copy of the mapper's page tables, dedup
// bookkeeping and TLB contents.
func (m *Mapper) State() *MapperState {
	st := &MapperState{
		Dedup:        m.dedup,
		NextPhys:     m.nextPhys,
		PrivatePages: m.PrivatePages,
		SharedPages:  m.SharedPages,
		DedupRefs:    m.DedupRefs,
		CoWBreaks:    m.CoWBreaks,
	}
	for k, v := range m.private {
		st.Private = append(st.Private, PageEntry{VM: k.vm, VPage: k.vpage, Phys: v})
	}
	for k, v := range m.cowAt {
		st.CoW = append(st.CoW, CoWEntry{VM: k.vm, VPage: k.vpage, Phys: m.cowRes[k], VisibleAt: v})
	}
	for k, v := range m.shared {
		st.Shared = append(st.Shared, SharedEntry{Content: k, Phys: v})
	}
	for k := range m.sharedSeen {
		st.Seen = append(st.Seen, SeenEntry{VM: k.vm, VPage: k.vpage})
	}
	sortPages(st.Private)
	sort.Slice(st.CoW, func(i, j int) bool {
		if st.CoW[i].VM != st.CoW[j].VM {
			return st.CoW[i].VM < st.CoW[j].VM
		}
		return st.CoW[i].VPage < st.CoW[j].VPage
	})
	sort.Slice(st.Shared, func(i, j int) bool { return st.Shared[i].Content < st.Shared[j].Content })
	sort.Slice(st.Seen, func(i, j int) bool {
		if st.Seen[i].VM != st.Seen[j].VM {
			return st.Seen[i].VM < st.Seen[j].VM
		}
		return st.Seen[i].VPage < st.Seen[j].VPage
	})
	return st
}

// RestoreState replaces the mapper's page tables, dedup bookkeeping and
// TLB contents with a captured state. The dedup setting must match the
// mapper's construction (it is config-derived, not run state).
func (m *Mapper) RestoreState(st *MapperState) error {
	if st.Dedup != m.dedup {
		return fmt.Errorf("memctrl: snapshot dedup=%v, mapper dedup=%v", st.Dedup, m.dedup)
	}
	m.nextPhys = st.NextPhys
	m.private = make(map[pageKey]uint64, len(st.Private))
	for _, e := range st.Private {
		m.private[pageKey{e.VM, e.VPage}] = e.Phys
	}
	m.cowAt = make(map[pageKey]sim.Time, len(st.CoW))
	for _, e := range st.CoW {
		k := pageKey{e.VM, e.VPage}
		if res, ok := m.cowRes[k]; !ok || res != e.Phys {
			return fmt.Errorf("memctrl: snapshot CoW frame %d for (vm %d, page %#x) does not match the reservation (%d); workload mismatch?", e.Phys, e.VM, e.VPage, res)
		}
		m.cowAt[k] = e.VisibleAt
	}
	m.shared = make(map[uint64]uint64, len(st.Shared))
	for _, e := range st.Shared {
		m.shared[e.Content] = e.Phys
	}
	m.sharedSeen = make(map[pageKey]bool, len(st.Seen))
	for _, e := range st.Seen {
		m.sharedSeen[pageKey{e.VM, e.VPage}] = true
	}
	m.flushTLB()
	m.PrivatePages = st.PrivatePages
	m.SharedPages = st.SharedPages
	m.DedupRefs = st.DedupRefs
	m.CoWBreaks = st.CoWBreaks
	return nil
}
