package mesh

import (
	"fmt"

	"repro/internal/sim"
)

// NetworkState is the serializable state of the mesh: per-directed-link
// reservations and flit totals plus the activity counters. Messages in
// flight live in the kernel queue, not here, so a quiescent kernel
// implies the network itself carries only this data.
type NetworkState struct {
	LinkFree  []sim.Time
	LinkFlits []uint64
	Stats     Stats
}

// State returns a deep copy of the network's link and counter state.
func (n *Network) State() *NetworkState {
	st := &NetworkState{
		LinkFree:  make([]sim.Time, len(n.linkFree)),
		LinkFlits: make([]uint64, len(n.linkFlits)),
		Stats:     n.stats,
	}
	copy(st.LinkFree, n.linkFree)
	copy(st.LinkFlits, n.linkFlits)
	return st
}

// RestoreState overwrites the network's link and counter state. The
// grid must match the network's construction.
func (n *Network) RestoreState(st *NetworkState) error {
	if len(st.LinkFree) != len(n.linkFree) || len(st.LinkFlits) != len(n.linkFlits) {
		return fmt.Errorf("mesh: snapshot has %d link slots, network has %d", len(st.LinkFree), len(n.linkFree))
	}
	copy(n.linkFree, st.LinkFree)
	copy(n.linkFlits, st.LinkFlits)
	n.stats = st.Stats
	return nil
}
