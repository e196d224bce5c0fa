// Package mesh models the on-chip interconnection network: a 2D mesh
// with XY (dimension-order) routing, per-link contention, and the
// spanning-tree broadcast support the paper adds to Garnet.
//
// The model is contention-aware but message-granular: when a message is
// sent, its whole path is walked immediately, reserving each directed
// link for the message's flit count and accumulating per-hop latency
// (2 cycles/link + 2 cycles/switch + 1 cycle/router in Table III).
// Because the simulation kernel executes same-cycle events in FIFO
// order, reservations serialize deterministically.
package mesh

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Direction of a mesh link leaving a router.
type Direction int

// Mesh link directions.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// Config holds the network timing and packet geometry (Table III).
type Config struct {
	LinkCycles   int  // cycles to traverse one link
	SwitchCycles int  // cycles through the crossbar/switch
	RouterCycles int  // cycles of router pipeline
	ControlFlits int  // flits in a control packet
	DataFlits    int  // flits in a data packet
	Contention   bool // model per-link occupancy
}

// DefaultConfig is the paper's Table III network: 2 cycles/link,
// 2 cycles/switch, 1 cycle/router, 16-byte flits, 1-flit control and
// 5-flit data packets, contention on.
func DefaultConfig() Config {
	return Config{
		LinkCycles:   2,
		SwitchCycles: 2,
		RouterCycles: 1,
		ControlFlits: 1,
		DataFlits:    5,
		Contention:   true,
	}
}

// Stats aggregates the network activity counters the power model needs.
type Stats struct {
	Messages         uint64 // unicast messages sent
	Broadcasts       uint64 // broadcast operations
	FlitLinkCrossing uint64 // flit x link traversals (link energy unit)
	RouterTraversals uint64 // message x router traversals (routing energy unit)
	TotalHops        uint64 // link hops summed over unicast messages
	TotalLatency     uint64 // head latency summed over unicast messages
	QueueingCycles   uint64 // cycles spent waiting on busy links
}

// Observer receives one callback per injected message or broadcast,
// at injection time (when the whole path has been walked and the
// arrival scheduled). It is the telemetry tap for causal transaction
// tracing: because it fires synchronously inside Send, the kernel's
// causal tag at call time identifies the transaction the message
// belongs to. Observers must be pure — they may not send messages or
// schedule events.
type Observer interface {
	// Message reports one unicast: its endpoints, flit count, the
	// injection and arrival cycles, and the link hops traversed. The
	// route itself is not passed because XY routing makes it a pure
	// function of (src, dst).
	Message(src, dst topo.Tile, flits int, depart, arrive sim.Time, hops int)
	// BroadcastDone reports one spanning-tree (or emulated unicast)
	// broadcast: the source, flit count, tree links used and the
	// latency to the farthest destination.
	BroadcastDone(src topo.Tile, flits, links int, maxLat sim.Time)
}

// Network is the mesh interconnect for one chip.
type Network struct {
	kernel *sim.Kernel
	grid   topo.Grid
	cfg    Config

	linkFree  []sim.Time // [tile*numDirections + dir] next free cycle
	linkFlits []uint64   // [tile*numDirections + dir] flits carried, ever
	stats     Stats
	obs       Observer // nil = no tap

	// Scratch buffer reused across calls to keep the broadcast hot
	// path allocation-free. Fully rewritten before use and never live
	// past the call that fills it (deliveries are scheduled through
	// the kernel, so Broadcast never re-enters).
	arrival []sim.Time // per-tile broadcast arrival, indexed by tile id
}

// New returns a network over grid driven by kernel.
func New(kernel *sim.Kernel, grid topo.Grid, cfg Config) *Network {
	return &Network{
		kernel:    kernel,
		grid:      grid,
		cfg:       cfg,
		linkFree:  make([]sim.Time, grid.Tiles()*int(numDirections)),
		linkFlits: make([]uint64, grid.Tiles()*int(numDirections)),
		arrival:   make([]sim.Time, grid.Tiles()),
	}
}

// SetObserver attaches (or with nil detaches) the message tap.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// LinkFlits copies the per-directed-link flit counters into dst
// (allocating when dst is too small) and returns it. Index layout is
// int(tile)*4 + int(dir); use DirectionName for labels. The counters
// are monotonic over the whole run (never reset), so epoch deltas
// give per-link occupancy.
func (n *Network) LinkFlits(dst []uint64) []uint64 {
	if cap(dst) < len(n.linkFlits) {
		dst = make([]uint64, len(n.linkFlits))
	}
	dst = dst[:len(n.linkFlits)]
	copy(dst, n.linkFlits)
	return dst
}

// NumLinkSlots returns the length of the per-link counter vector
// (tiles x 4 directions; edge slots exist but never carry flits).
func (n *Network) NumLinkSlots() int { return len(n.linkFlits) }

// DirectionName returns the lowercase name of a link direction.
func DirectionName(d Direction) string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	}
	return "?"
}

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats { return n.stats }

// ResetStats zeroes the activity counters (used to discard a warmup
// phase); link reservations are left intact.
func (n *Network) ResetStats() { n.stats = Stats{} }

// Grid returns the mesh dimensions.
func (n *Network) Grid() topo.Grid { return n.grid }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// HopLatency returns the head latency of one full mesh hop (link +
// switch + router): no message between distinct tiles arrives sooner.
func (c Config) HopLatency() sim.Time {
	return sim.Time(c.LinkCycles + c.SwitchCycles + c.RouterCycles)
}

func (n *Network) hopLatency() sim.Time { return n.cfg.HopLatency() }

// reserveLink reserves the directed link (tile, dir) for flits cycles
// starting no earlier than at; it returns the actual start time.
func (n *Network) reserveLink(tile topo.Tile, dir Direction, at sim.Time, flits int) sim.Time {
	idx := int(tile)*int(numDirections) + int(dir)
	n.linkFlits[idx] += uint64(flits)
	start := at
	if n.cfg.Contention && n.linkFree[idx] > start {
		n.stats.QueueingCycles += uint64(n.linkFree[idx] - start)
		start = n.linkFree[idx]
	}
	if n.cfg.Contention {
		n.linkFree[idx] = start + sim.Time(flits)
	}
	return start
}

// Delivery describes the outcome of a Send: when the message arrives
// and how much network it consumed.
type Delivery struct {
	Latency sim.Time // head-flit latency plus serialization
	Hops    int      // links traversed
	Routers int      // routers traversed (hops + 1)
}

// Send injects a message of flits flits from src to dst and schedules
// deliver to run at its arrival time. It returns the computed delivery
// metadata immediately (the model walks the path at injection time).
func (n *Network) Send(src, dst topo.Tile, flits int, deliver func()) Delivery {
	return n.send(src, dst, flits, deliver, nil, nil)
}

// SendArg is Send through the kernel's non-capturing fast path:
// deliver(arg) runs at arrival. Hot senders that would otherwise
// build a fresh closure per message pass a long-lived function plus a
// small argument instead.
func (n *Network) SendArg(src, dst topo.Tile, flits int, deliver func(any), arg any) Delivery {
	return n.send(src, dst, flits, nil, deliver, arg)
}

func (n *Network) send(src, dst topo.Tile, flits int, run func(), argFn func(any), arg any) Delivery {
	if !n.grid.Contains(src) || !n.grid.Contains(dst) {
		panic(fmt.Sprintf("mesh: Send between invalid tiles %d -> %d", src, dst))
	}
	if flits <= 0 {
		panic("mesh: message must have at least one flit")
	}
	now := n.kernel.Now()
	if src == dst {
		// Same-tile delivery through the local router/crossbar only.
		lat := sim.Time(n.cfg.SwitchCycles + n.cfg.RouterCycles)
		n.stats.Messages++
		n.stats.RouterTraversals++
		n.stats.TotalLatency += uint64(lat)
		n.schedule(now+lat, run, argFn, arg)
		if n.obs != nil {
			n.obs.Message(src, dst, flits, now, now+lat, 0)
		}
		return Delivery{Latency: lat, Hops: 0, Routers: 1}
	}
	n.stats.Messages++
	t, hops := n.walkXY(src, dst, now, flits)
	// Tail flit serialization at the destination.
	lat := t - now + sim.Time(flits-1)
	n.stats.FlitLinkCrossing += uint64(hops * flits)
	n.stats.RouterTraversals += uint64(hops + 1)
	n.stats.TotalHops += uint64(hops)
	n.stats.TotalLatency += uint64(lat)
	n.schedule(now+lat, run, argFn, arg)
	if n.obs != nil {
		n.obs.Message(src, dst, flits, now, now+lat, hops)
	}
	return Delivery{Latency: lat, Hops: hops, Routers: hops + 1}
}

// walkXY walks the XY route from src to dst starting at cycle at,
// reserving each link crossing as the head flit reaches it (no
// materialized path). It returns the head arrival time and hop count.
func (n *Network) walkXY(src, dst topo.Tile, at sim.Time, flits int) (sim.Time, int) {
	x, y := n.grid.Coord(src)
	dx, dy := n.grid.Coord(dst)
	t := at
	hops := 0
	for x != dx {
		dir := East
		nx := x + 1
		if dx < x {
			dir = West
			nx = x - 1
		}
		start := n.reserveLink(n.grid.At(x, y), dir, t, flits)
		t = start + n.hopLatency()
		hops++
		x = nx
	}
	for y != dy {
		dir := South
		ny := y + 1
		if dy < y {
			dir = North
			ny = y - 1
		}
		start := n.reserveLink(n.grid.At(x, y), dir, t, flits)
		t = start + n.hopLatency()
		hops++
		y = ny
	}
	return t, hops
}

// schedule dispatches a delivery through the closure or argument form.
func (n *Network) schedule(at sim.Time, run func(), argFn func(any), arg any) {
	if argFn != nil {
		n.kernel.AtArg(at, argFn, arg)
	} else {
		n.kernel.At(at, run)
	}
}

// BroadcastDelivery describes the network usage of one broadcast.
type BroadcastDelivery struct {
	Links        int      // spanning-tree edges used
	Routers      int      // routers traversed
	Destinations int      // tiles reached (excluding source)
	MaxLatency   sim.Time // latency to the farthest tile
}

// Broadcast delivers a flits-flit message from src to every other tile
// using a dimension-order spanning tree: the message first spreads
// east/west along src's row, then each row tile spreads north/south
// along its column. Each tree edge carries the message exactly once,
// which is the point of hardware broadcast support versus 63 unicasts.
// deliver runs once per destination tile at its arrival time.
func (n *Network) Broadcast(src topo.Tile, flits int, deliver func(dst topo.Tile)) BroadcastDelivery {
	if !n.grid.Contains(src) {
		panic("mesh: Broadcast from invalid tile")
	}
	now := n.kernel.Now()
	n.stats.Broadcasts++
	links := n.walkTree(src, flits, now)

	var maxLat sim.Time
	dests := 0
	// One adapter closure serves all destinations; each delivery is
	// scheduled through the AtArg fast path with the tile id as the
	// argument, so a 64-tile broadcast costs one allocation instead of
	// 63 per-destination closures.
	deliverTo := func(a any) { deliver(a.(topo.Tile)) }
	// Deliveries are scheduled in tile order: same-cycle events run in
	// scheduling order, so iterating tiles in arbitrary order would
	// make runs nondeterministic.
	arrival := n.arrival
	for i := 0; i < n.grid.Tiles(); i++ {
		t := topo.Tile(i)
		if t == src {
			continue
		}
		at := arrival[t]
		dests++
		lat := at - now + sim.Time(flits-1)
		if lat > maxLat {
			maxLat = lat
		}
		n.kernel.AtArg(at+sim.Time(flits-1), deliverTo, t)
	}
	routers := n.grid.Tiles() // every router forwards/ejects the message
	n.stats.FlitLinkCrossing += uint64(links * flits)
	n.stats.RouterTraversals += uint64(routers)
	if n.obs != nil {
		n.obs.BroadcastDone(src, flits, links, maxLat)
	}
	return BroadcastDelivery{
		Links:        links,
		Routers:      routers,
		Destinations: dests,
		MaxLatency:   maxLat,
	}
}

// walkTree reserves the dimension-order spanning tree for a broadcast
// issued from src at the given cycle, filling n.arrival with each
// tile's head arrival time. The spanning tree reaches every tile, and
// each tile's arrival is written before any dependent read, so the
// scratch slice needs no clearing between broadcasts. Returns the edge
// count (always Tiles-1 on a full mesh).
func (n *Network) walkTree(src topo.Tile, flits int, at sim.Time) int {
	sx, sy := n.grid.Coord(src)
	arrival := n.arrival
	arrival[src] = at

	links := 0
	crossLink := func(from topo.Tile, dir Direction, to topo.Tile) {
		start := n.reserveLink(from, dir, arrival[from], flits)
		arrival[to] = start + n.hopLatency()
		links++
	}
	// Phase 1: spread along the source row.
	for x := sx + 1; x < n.grid.Cols; x++ {
		crossLink(n.grid.At(x-1, sy), East, n.grid.At(x, sy))
	}
	for x := sx - 1; x >= 0; x-- {
		crossLink(n.grid.At(x+1, sy), West, n.grid.At(x, sy))
	}
	// Phase 2: from every tile of the source row, spread along columns.
	for x := 0; x < n.grid.Cols; x++ {
		for y := sy + 1; y < n.grid.Rows; y++ {
			crossLink(n.grid.At(x, y-1), South, n.grid.At(x, y))
		}
		for y := sy - 1; y >= 0; y-- {
			crossLink(n.grid.At(x, y+1), North, n.grid.At(x, y))
		}
	}
	return links
}

// UnicastBroadcast emulates a chip without hardware broadcast support:
// the message is sent as an independent unicast to every other tile.
// Used by the ablation benchmarks.
func (n *Network) UnicastBroadcast(src topo.Tile, flits int, deliver func(dst topo.Tile)) BroadcastDelivery {
	var bd BroadcastDelivery
	deliverTo := func(a any) { deliver(a.(topo.Tile)) }
	for t := topo.Tile(0); int(t) < n.grid.Tiles(); t++ {
		if t == src {
			continue
		}
		d := n.SendArg(src, t, flits, deliverTo, t)
		bd.Links += d.Hops
		bd.Routers += d.Routers
		bd.Destinations++
		if d.Latency > bd.MaxLatency {
			bd.MaxLatency = d.Latency
		}
	}
	return bd
}

// MeanDistance returns the theoretical average Manhattan distance
// between two uniformly random distinct tiles of an n-tile square
// mesh, which the paper approximates as (2/3)*sqrt(ntc) per dimension
// pair (Section V-D uses 2/3*sqrt(ntc) links per leg... the exact
// value is computed here by enumeration).
func MeanDistance(grid topo.Grid) float64 {
	total, pairs := 0, 0
	for a := 0; a < grid.Tiles(); a++ {
		for b := 0; b < grid.Tiles(); b++ {
			if a == b {
				continue
			}
			total += grid.Hops(topo.Tile(a), topo.Tile(b))
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}
