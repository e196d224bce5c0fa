package proto

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// L1 states of Direct Coherence. Owner states carry the block's
// directory information (the full-map sharing vector) in the L1.
const (
	dcShared cache.State = 1 + iota
	dcOwnerShared
	dcOwnerExclusive
	dcOwnerModified
)

func dcIsOwner(s cache.State) bool {
	return s == dcOwnerShared || s == dcOwnerExclusive || s == dcOwnerModified
}

// DiCo is the original Direct Coherence protocol [7]: ownership and
// coherence information live in the L1 caches, the L1C$ predicts the
// supplier so most misses resolve in two hops, and the home's L2C$
// tracks the precise owner for mispredictions.
type DiCo struct {
	ctx   *Context
	tiles []*tileState

	// Long-lived adapters for the kernel/mesh argument fast path:
	// protocol hops travel as (fn, *dcMsg) pairs instead of
	// per-message closures (see dirMsg for the pattern).
	atHomeFn  func(any)
	atL1Fn    func(any)
	invalFn   func(any)
	ackFn     func(any)
	deliverFn func(any)
	coFn      func(any)
	coAckFn   func(any)
	memReqFn  func(any)
	memRespFn func(any)
	memFillFn func(any)
	wbFn      func(any)
	flushFn   func(any)

	free *dcMsg // message node free list

	// Recall marks and the Change_Owner ordering stamps live in the
	// home tile's transaction table (tileState.markRecall /
	// stampIfNewer): the paper gates transfers on the home's ack; the
	// stamp realizes the same ordering against reordered messages.
}

// dcMsg is DiCo's pooled argument node for the non-capturing message
// path (see dirMsg).
type dcMsg struct {
	next     *dcMsg
	r        dcReq
	tile     topo.Tile   // hop-specific second tile
	state    cache.State // deliverData fill state
	dirty    bool
	supplier int16    // deliverData prediction hint / invalidation new owner
	stamp    sim.Time // Change_Owner ordering stamp
	vec      uint64   // sharer vector (writeback)
}

// msg takes a node from the pool.
func (p *DiCo) msg(r dcReq) *dcMsg {
	m := p.free
	if m != nil {
		p.free = m.next
	} else {
		m = &dcMsg{}
	}
	m.r = r
	return m
}

// putMsg recycles a node into the pool.
func (p *DiCo) putMsg(m *dcMsg) {
	m.next = p.free
	p.free = m
}

// bindHandlers builds the long-lived adapter funcs once.
func (p *DiCo) bindHandlers() {
	p.atHomeFn = func(a any) {
		m := a.(*dcMsg)
		r := m.r
		p.putMsg(m)
		p.atHome(r)
	}
	p.atL1Fn = func(a any) {
		m := a.(*dcMsg)
		r, tile := m.r, m.tile
		p.putMsg(m)
		p.atL1(r, tile)
	}
	p.invalFn = func(a any) {
		m := a.(*dcMsg)
		tile, addr, ackTo, newOwner := m.tile, m.r.addr, m.r.requestor, topo.Tile(m.supplier)
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(ackTo)
		p.invalidateAtL1(ctx, tile, addr, ackTo, newOwner)
	}
	p.ackFn = func(a any) {
		m := a.(*dcMsg)
		ackTo, addr := m.tile, m.r.addr
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(ackTo)
		e, ok := p.tiles[ackTo].mshr.Lookup(addr)
		if !ok {
			return
		}
		e.SharerAcks--
		p.maybeComplete(ctx, ackTo, addr)
	}
	p.deliverFn = func(a any) {
		m := a.(*dcMsg)
		r, state, dirty, supplier := m.r, m.state, m.dirty, m.supplier
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(r.requestor)
		p.fillL1(ctx, r.requestor, r.addr, state, dirty, supplier)
		if e, ok := p.tiles[r.requestor].mshr.Lookup(r.addr); ok {
			e.DataReceived = true
			e.Links += int(r.links)
			e.SharerAcks += int(r.acks)
			e.HomeAck += int(r.homeAck)
			if r.clsPlus1 != 0 {
				e.Tag = int(r.clsPlus1 - 1)
			}
		}
		p.maybeComplete(ctx, r.requestor, r.addr)
	}
	// coFn lands a Change_Owner at the home; the node travels on to
	// carry the gating ack back to the new owner.
	p.coFn = func(a any) {
		m := a.(*dcMsg)
		addr, newOwner, stamp := m.r.addr, m.tile, m.stamp
		home := p.ctx.HomeOf(addr)
		ctx := p.ctx
		ctx.chargeVM(newOwner)
		p.homeOwnerUpdate(ctx, home, addr, newOwner, stamp)
		ctx.SendCtlArg(home, newOwner, p.coAckFn, m)
	}
	p.coAckFn = func(a any) {
		m := a.(*dcMsg)
		requestor, addr := m.tile, m.r.addr
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		if e, ok := p.tiles[requestor].mshr.Lookup(addr); ok {
			e.HomeAck--
			p.maybeComplete(ctx, requestor, addr)
		}
	}
	// Memory fetch pipeline (no L2 copy is kept: the L1 owner holds
	// the block and its coherence information).
	p.memReqFn = func(a any) {
		m := a.(*dcMsg)
		ctx := p.ctx
		ctx.MemFetch(p.memRespFn, m)
	}
	p.memRespFn = func(a any) {
		m := a.(*dcMsg)
		mc := p.ctx.Mem.For(m.r.addr)
		ctx := p.ctx
		ctx.chargeVM(m.r.requestor)
		home := ctx.HomeOf(m.r.addr)
		d2 := ctx.SendDataArg(mc, home, p.memFillFn, m)
		m.r.links += int16(d2.Hops)
	}
	p.memFillFn = func(a any) {
		m := a.(*dcMsg)
		r := m.r
		home := p.ctx.HomeOf(r.addr)
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(r.requestor)
		state, dirty := dcOwnerExclusive, false
		if r.write {
			state, dirty = dcOwnerModified, true
		}
		p.deliverData(ctx, r, home, state, dirty, -1)
	}
	// wbFn lands an ownership writeback (data + sharing code) at the
	// home L2.
	p.wbFn = func(a any) {
		m := a.(*dcMsg)
		addr, dirty, sharers := m.r.addr, m.dirty, m.vec
		home := p.ctx.HomeOf(addr)
		p.putMsg(m)
		ctx := p.ctx
		// Stamp the return of ownership so a Change_Owner that was
		// sent earlier but arrives later cannot resurrect a stale
		// pointer.
		p.tiles[home].setStamp(addr, ctx.Kernel.Now())
		p.insertL2Owned(ctx, home, addr, dirty, sharers, nil)
		// The home's pointer to the old L1 owner is obsolete.
		if p.tiles[home].l2c.Invalidate(addr) {
			ctx.pw.L2CUpdate.Inc()
		}
		p.tiles[home].clearRecall(addr)
		p.tiles[home].wakeHome(ctx.Kernel, addr)
	}
	// flushFn runs at the memory controller tile boxed in the argument.
	p.flushFn = func(a any) { p.ctx.MemFlush() }
}

// NewDiCo builds the DiCo engine on ctx.
func NewDiCo(ctx *Context) *DiCo {
	ctx.bindPower()
	n := ctx.NumTiles()
	p := &DiCo{
		ctx:   ctx,
		tiles: make([]*tileState, n),
	}
	p.bindHandlers()
	for i := range p.tiles {
		p.tiles[i] = newTileState(ctx.Cfg, ctx.BankShift())
	}
	return p
}

// Name implements Engine.
func (p *DiCo) Name() string { return "dico" }

// Stats implements Engine.
func (p *DiCo) Stats() *stats.Set { return &p.ctx.Counters }

// MissProfile implements Engine.
func (p *DiCo) MissProfile() MissProfile { return p.ctx.Profile }

type dcReq struct {
	addr      cache.Addr
	requestor topo.Tile
	write     bool
	predicted bool
	forwards  int
	// Ride-the-message fields (see dirReq): requestor-MSHR updates
	// accumulated along the miss and applied at delivery.
	links    int16 // mesh links traversed by the request legs
	acks     int16 // sharer acks the write must collect
	homeAck  int8  // pending Change_Owner acks the write must collect
	clsPlus1 int8  // resolved MissClass + 1 (0 = not resolved yet)
}

// Access implements Engine.
func (p *DiCo) Access(tile topo.Tile, addr cache.Addr, write bool, onDone func()) {
	ctx := p.ctx
	ctx.chargeVM(tile)
	t := p.tiles[tile]
	if _, pending := t.mshr.Lookup(addr); pending {
		t.stallL1(addr, func() { p.Access(tile, addr, write, onDone) })
		return
	}
	ctx.pw.L1TagRead.Inc()
	if line := t.l1.Lookup(addr); line != nil {
		if !write {
			ctx.pw.L1DataRead.Inc()
			ctx.Profile.Hits++
			ctx.observeRetired(tile, addr, false, true, false)
			ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
			return
		}
		switch {
		case line.State == dcOwnerModified || line.State == dcOwnerExclusive:
			line.State = dcOwnerModified
			line.Dirty = true
			ctx.pw.L1DataWrite.Inc()
			ctx.Profile.Hits++
			ctx.observeRetired(tile, addr, true, true, false)
			ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
			return
		case line.State == dcOwnerShared:
			// Owner writes: it invalidates its sharers itself — the
			// hallmark of Direct Coherence.
			p.ownerWriteHit(tile, addr, line, onDone)
			return
		}
		// Shared copy: upgrade via the regular miss path.
	}
	e := t.mshr.Allocate(addr, write, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	ctx.spanBegin(tile, addr, write)
	if ctx.tracing(addr) {
		ctx.Trace(addr, "miss at %d write=%v", tile, write)
	}
	r := dcReq{addr: addr, requestor: tile, write: write}
	// Predict the supplier via the L1C$ (Figure 5).
	ctx.pw.L1CAccess.Inc()
	if ptr, ok := t.l1c.Lookup(addr); ok && topo.Tile(ptr) != tile && !ctx.Cfg.NoPrediction {
		r.predicted = true
		e.Tag = int(MissPredOwner)
		ctx.spanEvent("predict-supplier", tile)
		pred := topo.Tile(ptr)
		m := p.msg(r)
		m.tile = pred
		del := ctx.SendCtlArg(tile, pred, p.atL1Fn, m)
		e.Links += del.Hops
		return
	}
	e.Tag = int(MissUnpredHome)
	home := ctx.HomeOf(addr)
	del := ctx.SendCtlArg(tile, home, p.atHomeFn, p.msg(r))
	e.Links += del.Hops
}

// ownerWriteHit invalidates the sharers from the owner itself (no home
// involvement) and upgrades the line to modified.
func (p *DiCo) ownerWriteHit(tile topo.Tile, addr cache.Addr, line *cache.Line, onDone func()) {
	ctx := p.ctx
	t := p.tiles[tile]
	sharers := line.Sharers &^ bit(tile)
	if sharers == 0 {
		line.State = dcOwnerModified
		line.Dirty = true
		line.Sharers = 0
		ctx.pw.L1DataWrite.Inc()
		ctx.Profile.Hits++
		ctx.observeRetired(tile, addr, true, true, false)
		ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
		return
	}
	e := t.mshr.Allocate(addr, true, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	e.Tag = int(MissPredOwner) // resolved locally; counted as a 0-link owner hit
	ctx.spanBegin(tile, addr, true)
	ctx.spanEvent("owner-write-inv", tile)
	e.DataReceived = true
	e.SharerAcks = popcount(sharers)
	for v := sharers; v != 0; v &= v - 1 {
		sharer := topo.Tile(bits.TrailingZeros64(v))
		m := p.msg(dcReq{addr: addr, requestor: tile})
		m.tile = sharer
		m.supplier = int16(tile)
		ctx.SendCtlArg(tile, sharer, p.invalFn, m)
	}
	line.State = dcOwnerModified
	line.Dirty = true
	line.Sharers = 0
	ctx.pw.L1DataWrite.Inc()
	ctx.pw.L1TagWrite.Inc()
}

// atL1 handles a request arriving at an L1 (by prediction or forwarded
// from the home).
func (p *DiCo) atL1(r dcReq, tile topo.Tile) {
	ctx := p.ctx
	ctx.chargeVM(r.requestor)
	t := p.tiles[tile]
	if _, pending := t.mshr.Lookup(r.addr); pending {
		// Pooled-arg stall: a closure here would capture r and force it
		// to the heap on every atL1 call, not just the stalled ones.
		m := p.msg(r)
		m.tile = tile
		t.stallL1Arg(r.addr, p.atL1Fn, m)
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Lookup(r.addr)
	if line == nil || !dcIsOwner(line.State) {
		// Misprediction (or stale forward): to the home.
		if r.predicted && r.forwards == 0 {
			r.clsPlus1 = int8(MissPredFail) + 1
		}
		r.forwards++
		home := ctx.HomeOf(r.addr)
		m := p.msg(r)
		del := ctx.SendCtlArg(tile, home, p.atHomeFn, m)
		m.r.links += int16(del.Hops)
		return
	}
	if r.write {
		p.ownerWriteSupply(ctx, r, tile, line)
		return
	}
	// Owner read supply: requestor becomes a sharer; two-hop miss when
	// predicted.
	if r.predicted && r.forwards == 0 {
		r.clsPlus1 = int8(MissPredOwner) + 1
	} else if !r.predicted {
		r.clsPlus1 = int8(MissUnpredOwner) + 1
	}
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "owner %d supplies read to %d (sharers %#x)", tile, r.requestor, line.Sharers)
	}
	line.Sharers |= bit(r.requestor)
	if line.State != dcOwnerShared {
		line.State = dcOwnerShared
	}
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliverData(ctx, r, tile, dcShared, false, int16(tile))
}

// ownerWriteSupply transfers ownership to a writer: the owner
// invalidates the sharers itself, sends the data, and notifies the
// home with Change_Owner (acked before the transfer is final).
func (p *DiCo) ownerWriteSupply(ctx *Context, r dcReq, owner topo.Tile, line *cache.Line) {
	if r.predicted && r.forwards == 0 {
		r.clsPlus1 = int8(MissPredOwner) + 1
	} else if !r.predicted {
		r.clsPlus1 = int8(MissUnpredOwner) + 1
	}
	sharers := line.Sharers &^ bit(r.requestor) &^ bit(owner)
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "owner %d write-supplies %d, inv sharers %#x", owner, r.requestor, sharers)
	}
	// The sharer-ack and Change_Owner-ack expectations ride to the
	// requestor with the data; an ack arriving first drives its MSHR
	// counter transiently negative, which Done() tolerates.
	r.acks += int16(popcount(sharers))
	r.homeAck++
	for v := sharers; v != 0; v &= v - 1 {
		sharer := topo.Tile(bits.TrailingZeros64(v))
		m := p.msg(dcReq{addr: r.addr, requestor: r.requestor})
		m.tile = sharer
		m.supplier = int16(r.requestor)
		ctx.SendCtlArg(owner, sharer, p.invalFn, m)
	}
	ctx.pw.L1DataRead.Inc()
	ctx.pw.L1TagWrite.Inc()
	p.tiles[owner].l1.Invalidate(r.addr)
	// The former owner's prediction now points at the new owner.
	p.tiles[owner].l1c.Update(r.addr, int16(r.requestor))
	ctx.pw.L1CUpdate.Inc()
	p.deliverData(ctx, r, owner, dcOwnerModified, true, -1)
	home := ctx.HomeOf(r.addr)
	m := p.msg(dcReq{addr: r.addr})
	m.tile = r.requestor
	m.stamp = ctx.Kernel.Now()
	ctx.SendCtlArg(owner, home, p.coFn, m) // Change_Owner (+ gating ack)
}

// atHome handles a request at the home bank: consult the L2C$ for the
// precise owner, else serve from the L2 (home ownership), else fetch
// memory.
func (p *DiCo) atHome(r dcReq) {
	home := p.ctx.HomeOf(r.addr)
	ctx := p.ctx
	ctx.chargeVM(r.requestor)
	th := p.tiles[home]
	if th.homeBusy(r.addr) || th.recallMarked(r.addr) {
		th.stallHomeArg(r.addr, p.atHomeFn, p.msg(r))
		return
	}
	ctx.pw.L2TagRead.Inc()
	ctx.pw.L2CAccess.Inc()
	if ptr, ok := th.l2c.Lookup(r.addr); ok && th.l2.Peek(r.addr) == nil {
		owner := topo.Tile(ptr)
		if owner == r.requestor || r.forwards >= maxForwards {
			// Our own transfer is settling, or forwarding keeps
			// bouncing: back off and retry, keeping the links already
			// ridden (those hops really happened).
			ctx.spanRetry(r.requestor)
			nr := r
			nr.forwards = 0
			ctx.Kernel.AfterArg(retryBackoff, p.atHomeFn, p.msg(nr))
			return
		}
		r.forwards++
		ctx.spanEvent("home-forward-owner", home)
		m := p.msg(r)
		m.tile = owner
		del := ctx.SendCtlArg(home, owner, p.atL1Fn, m)
		m.r.links += int16(del.Hops)
		return
	}
	if l2line := th.l2.Lookup(r.addr); l2line != nil {
		// A stale Change_Owner may have re-installed an L2C$ pointer
		// after the ownership returned home; the L2 line wins.
		if th.l2c.Invalidate(r.addr) {
			ctx.pw.L2CUpdate.Inc()
		}
		p.homeOwnerSupply(ctx, r, home, l2line)
		return
	}
	// Not on chip: requestor becomes owner; memory supplies.
	p.updateL2C(ctx, home, r.addr, r.requestor)
	mc := ctx.Mem.For(r.addr)
	m := p.msg(r)
	del := ctx.SendCtlArg(home, mc, p.memReqFn, m)
	m.r.links += int16(del.Hops)
}

// homeOwnerSupply serves a request when the home L2 holds ownership.
func (p *DiCo) homeOwnerSupply(ctx *Context, r dcReq, home topo.Tile, l2line *cache.Line) {
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "home %d supplies %d write=%v (l2 sharers %#x)", home, r.requestor, r.write, l2line.Sharers)
	}
	th := p.tiles[home]
	if !r.predicted || r.forwards > 0 {
		r.clsPlus1 = int8(MissUnpredHome) + 1
	}
	if r.write {
		sharers := l2line.Sharers &^ bit(r.requestor)
		r.acks += int16(popcount(sharers))
		for v := sharers; v != 0; v &= v - 1 {
			sharer := topo.Tile(bits.TrailingZeros64(v))
			m := p.msg(dcReq{addr: r.addr, requestor: r.requestor})
			m.tile = sharer
			m.supplier = int16(r.requestor)
			ctx.SendCtlArg(home, sharer, p.invalFn, m)
		}
		dirty := l2line.Dirty
		th.l2.Invalidate(r.addr)
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataRead.Inc()
		_ = dirty // the new owner is modified regardless of the L2 copy's state
		p.updateL2C(ctx, home, r.addr, r.requestor)
		p.deliverData(ctx, r, home, dcOwnerModified, true, -1)
		return
	}
	l2line.Sharers |= bit(r.requestor)
	ctx.pw.L2DataRead.Inc()
	p.deliverData(ctx, r, home, dcShared, false, -1)
}

// invalidateAtL1 drops a sharer's copy, updates its prediction to the
// new owner (Figure 5), and acks the requestor.
func (p *DiCo) invalidateAtL1(ctx *Context, tile topo.Tile, addr cache.Addr, ackTo, newOwner topo.Tile) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "invalidate at %d (ack to %d)", tile, ackTo)
	}
	t := p.tiles[tile]
	ctx.pw.L1TagRead.Inc()
	if _, ok := t.l1.Invalidate(addr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := t.mshr.Lookup(addr); ok {
		e.InvalidatedWhilePending = true
	}
	t.l1c.Update(addr, int16(newOwner))
	ctx.pw.L1CUpdate.Inc()
	m := p.msg(dcReq{addr: addr})
	m.tile = ackTo
	ctx.SendCtlArg(tile, ackTo, p.ackFn, m)
}

// homeOwnerUpdate installs a new owner pointer in the home's L2C$,
// guarded against reordered Change_Owner messages.
func (p *DiCo) homeOwnerUpdate(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile, stamp sim.Time) {
	th := p.tiles[home]
	if !th.stampIfNewer(addr, stamp) {
		return // a newer transfer already registered
	}
	p.updateL2C(ctx, home, addr, owner)
	th.clearRecall(addr)
	th.wakeHome(ctx.Kernel, addr)
}

// updateL2C writes an owner pointer, running the L2C$ replacement
// protocol (ownership recall) when the insertion displaces a victim.
func (p *DiCo) updateL2C(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	th := p.tiles[home]
	evicted, evictedPtr, displaced := th.l2c.Update(addr, int16(owner))
	ctx.pw.L2CUpdate.Inc()
	if !displaced {
		return
	}
	// The displaced entry loses the home's only pointer to its owner:
	// recall that ownership to the home L2.
	p.recallOwnership(ctx, home, evicted, topo.Tile(evictedPtr))
}

// recallOwnership implements the L2C$ information replacement of
// Section IV-A1: the home asks the owner to relinquish ownership and
// return the sharing code and the data. The victim's pointer is read
// before the eviction overwrites it — as the hardware does — so the
// recall travels straight to the owner; no chip-wide L1 scan. If the
// pointer is stale (ownership moved or is still being granted), the
// relinquish handler's guards resolve it at the owner's tile.
func (p *DiCo) recallOwnership(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	p.tiles[home].markRecall(addr)
	ctx.SendCtl(home, owner, func() { p.relinquishOwnership(home, owner, addr) })
}

// relinquishOwnership moves ownership from an L1 back to the home L2.
// The former owner stays on as a sharer.
func (p *DiCo) relinquishOwnership(home, owner topo.Tile, addr cache.Addr) {
	ctx := p.ctx
	t := p.tiles[owner]
	if _, pending := t.mshr.Lookup(addr); pending {
		// The recalled grant has not filled yet: wait for it.
		t.stallL1(addr, func() { p.relinquishOwnership(home, owner, addr) })
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Peek(addr)
	if line == nil || !dcIsOwner(line.State) {
		// Transfer raced the recall; the new owner's Change_Owner will
		// refresh the home and clear the recall marker.
		return
	}
	if ctx.tracing(addr) {
		ctx.Trace(addr, "relinquish at %d sharers=%#x", owner, line.Sharers)
	}
	sharers := line.Sharers | bit(owner)
	dirty := line.Dirty
	line.State = dcShared
	line.Dirty = false
	line.Sharers = 0
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	ctx.SendData(owner, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(addr, hctx.Kernel.Now())
		p.insertL2Owned(hctx, home, addr, dirty, sharers, func() {
			p.tiles[home].clearRecall(addr)
			p.tiles[home].wakeHome(hctx.Kernel, addr)
		})
	})
}

// deliverData sends the block to the requestor, carrying the miss's
// accumulated MSHR updates in r. supplier (when >= 0) is retained as
// the line's prediction hint.
func (p *DiCo) deliverData(ctx *Context, r dcReq, from topo.Tile, state cache.State, dirty bool, supplier int16) {
	m := p.msg(r)
	m.state = state
	m.dirty = dirty
	m.supplier = supplier
	del := ctx.SendDataArg(from, r.requestor, p.deliverFn, m)
	m.r.links += int16(del.Hops)
}

// fillL1 installs the block and runs the Table-II-style replacement
// protocol for the victim.
func (p *DiCo) fillL1(ctx *Context, tile topo.Tile, addr cache.Addr, state cache.State, dirty bool, supplier int16) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "fill at %d state=%d dirty=%v", tile, state, dirty)
	}
	t := p.tiles[tile]
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataWrite.Inc()
	if line := t.l1.Peek(addr); line != nil {
		line.State = state
		line.Dirty = line.Dirty || dirty
		if supplier >= 0 {
			line.Owner = supplier
		}
		t.l1.Touch(line)
		return
	}
	victim, valid := t.l1.Victim(addr)
	if valid {
		p.evictL1(ctx, tile, *victim)
		t.l1.Invalidate(victim.Addr)
	}
	nl := victim
	t.l1.Fill(nl, addr, state)
	nl.Dirty = dirty
	if supplier >= 0 {
		nl.Owner = supplier
	}
	// The block is cached: its dedicated L1C$ entry is redundant.
	t.l1c.Invalidate(addr)
}

// evictL1 is the DiCo block replacement: shared lines leave silently
// (retaining the supplier hint in the L1C$); owned lines transfer
// ownership to a sharer, or write back to the home when alone.
func (p *DiCo) evictL1(ctx *Context, tile topo.Tile, victim cache.Line) {
	if ctx.tracing(victim.Addr) {
		ctx.Trace(victim.Addr, "evict at %d state=%d sharers=%#x", tile, victim.State, victim.Sharers)
	}
	t := p.tiles[tile]
	if victim.State == dcShared {
		if victim.Owner >= 0 {
			t.l1c.Update(victim.Addr, victim.Owner)
			ctx.pw.L1CUpdate.Inc()
		}
		return
	}
	sharers := victim.Sharers &^ bit(tile)
	if sharers != 0 {
		p.transferOwnership(tile, victim.Addr, sharers, sharers, victim.Dirty)
		return
	}
	p.writebackToHome(ctx, tile, victim.Addr, victim.Dirty, 0)
}

// transferOwnership offers ownership to the sharers in turn; whoever
// still holds the block accepts, becomes owner, and sends Change_Owner
// to the home. If nobody accepts, the data falls back to the home from
// the last tile probed: the data rides the offer chain, so a failed
// chain writes back from where it ends instead of returning to the
// evictor (which keeps every send's source on the executing tile).
//
// tryList shrinks as candidates are probed; vector keeps every tile
// that may still (or will soon) hold a copy. A candidate with a miss
// in flight is skipped — stalling the transfer behind the miss can
// deadlock, since the miss may itself be waiting for this ownership to
// settle — but stays in the vector so its eventual fill is covered by
// the next owner's sharing code (a superset is always safe).
func (p *DiCo) transferOwnership(from topo.Tile, addr cache.Addr, tryList, vector uint64, dirty bool) {
	ctx := p.ctx
	target := topo.Tile(-1)
	forEachBit(tryList, func(i int) {
		if target < 0 {
			target = topo.Tile(i)
		}
	})
	if target < 0 {
		p.writebackToHome(ctx, from, addr, dirty, vector)
		return
	}
	rest := tryList &^ bit(target)
	ctx.SendCtl(from, target, func() {
		tctx := p.ctx
		t := p.tiles[target]
		if _, pending := t.mshr.Lookup(addr); pending {
			p.transferOwnership(target, addr, rest, vector, dirty)
			return
		}
		tctx.pw.L1TagRead.Inc()
		line := t.l1.Peek(addr)
		if line == nil || line.State != dcShared {
			if tctx.tracing(addr) {
				tctx.Trace(addr, "transfer rejected at %d", target)
			}
			// No longer a sharer: pass it on (Table II).
			p.transferOwnership(target, addr, rest, vector&^bit(target), dirty)
			return
		}
		if tctx.tracing(addr) {
			tctx.Trace(addr, "transfer accepted at %d (vector %#x)", target, vector)
		}
		line.State = dcOwnerShared
		line.Dirty = dirty
		line.Sharers = vector &^ bit(target)
		line.Owner = -1
		tctx.pw.L1TagWrite.Inc()
		home := tctx.HomeOf(addr)
		stamp := tctx.Kernel.Now()
		tctx.SendCtl(target, home, func() { // Change_Owner
			hctx := p.ctx
			p.homeOwnerUpdate(hctx, home, addr, target, stamp)
			hctx.SendCtl(home, target, func() {}) // ack (gating message)
		})
		// Hint the remaining sharers about the new owner (Figure 5).
		forEachBit(vector&^bit(target), func(i int) {
			sharer := topo.Tile(i)
			tctx.SendCtl(target, sharer, func() {
				sctx := p.ctx
				st := p.tiles[sharer]
				if l := st.l1.Peek(addr); l != nil && l.State == dcShared {
					l.Owner = int16(target)
				} else {
					st.l1c.Update(addr, int16(target))
					sctx.pw.L1CUpdate.Inc()
				}
			})
		})
	})
}

// writebackToHome sends ownership (and the data) to the home L2, which
// becomes the owner. tile must be the executing tile.
func (p *DiCo) writebackToHome(ctx *Context, tile topo.Tile, addr cache.Addr, dirty bool, sharers uint64) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "writeback to home from %d sharers=%#x", tile, sharers)
	}
	home := ctx.HomeOf(addr)
	ctx.pw.L1DataRead.Inc()
	m := p.msg(dcReq{addr: addr})
	m.dirty = dirty
	m.vec = sharers
	ctx.SendDataArg(tile, home, p.wbFn, m)
}

// insertL2Owned installs a block in the home L2 as owner, evicting an
// L2 victim first (which requires invalidating the victim's sharers —
// the same mechanism as a write, with the L2 as both owner and
// requestor).
func (p *DiCo) insertL2Owned(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool, sharers uint64, then func()) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "insert L2-owned at %d sharers=%#x", home, sharers)
	}
	th := p.tiles[home]
	if line := th.l2.Peek(addr); line != nil {
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataWrite.Inc()
		line.Dirty = line.Dirty || dirty
		line.Sharers |= sharers
		th.l2.Touch(line)
		if then != nil {
			then()
		}
		return
	}
	victim, valid := th.l2.Victim(addr)
	if valid {
		// Remove the victim from the array immediately (so no
		// concurrent insertion picks the same way), invalidate its
		// copies, then retry the insertion.
		snapshot := *victim
		th.l2.Invalidate(snapshot.Addr)
		ctx.pw.L2TagWrite.Inc()
		p.evictL2Owned(ctx, home, snapshot, func() {
			p.insertL2Owned(ctx, home, addr, dirty, sharers, then)
		})
		return
	}
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataWrite.Inc()
	th.l2.Fill(victim, addr, l2Present)
	victim.Dirty = dirty
	victim.Sharers = sharers
	if then != nil {
		then()
	}
}

// evictL2Owned invalidates every sharer of an L2-owned victim block,
// writes dirty data back to memory, and then calls then.
func (p *DiCo) evictL2Owned(ctx *Context, home topo.Tile, victim cache.Line, then func()) {
	th := p.tiles[home]
	victimAddr := victim.Addr
	if ctx.tracing(victimAddr) {
		ctx.Trace(victimAddr, "L2 eviction at %d sharers=%#x", home, victim.Sharers)
	}
	sharers := victim.Sharers
	th.setHomeBusy(victimAddr)
	pending := popcount(sharers)
	finish := func() {
		if victim.Dirty {
			mc := ctx.Mem.For(victimAddr)
			ctx.SendDataArg(home, mc, p.flushFn, mc)
		}
		th.clearHomeBusy(victimAddr)
		th.wakeHome(ctx.Kernel, victimAddr)
		then()
	}
	if pending == 0 {
		finish()
		return
	}
	forEachBit(sharers, func(i int) {
		sharer := topo.Tile(i)
		ctx.SendCtl(home, sharer, func() {
			sctx := p.ctx
			t := p.tiles[sharer]
			sctx.pw.L1TagRead.Inc()
			if _, ok := t.l1.Invalidate(victimAddr); ok {
				sctx.pw.L1TagWrite.Inc()
			}
			if e, ok := t.mshr.Lookup(victimAddr); ok {
				e.InvalidatedWhilePending = true
			}
			sctx.SendCtl(sharer, home, func() {
				pending--
				if pending == 0 {
					finish()
				}
			})
		})
	})
}

func (p *DiCo) maybeComplete(ctx *Context, tile topo.Tile, addr cache.Addr) {
	t := p.tiles[tile]
	e, ok := t.mshr.Lookup(addr)
	if !ok || !e.Done() {
		return
	}
	dropped := e.InvalidatedWhilePending && !e.Write
	if dropped {
		// The fill raced an invalidation. Dropping the line is the
		// safe resolution, but it must go through the regular
		// replacement protocol so any ownership or providership the
		// fill carried is handed back properly.
		if line := t.l1.Peek(addr); line != nil {
			snapshot := *line
			t.l1.Invalidate(addr)
			p.evictL1(ctx, tile, snapshot)
		}
	}
	cls := MissClass(e.Tag)
	ctx.Profile.Count[cls]++
	ctx.Profile.Links[cls] += uint64(e.Links)
	ctx.spanEnd(tile, cls, dropped)
	done := e.OnComplete
	t.mshr.Release(addr)
	ctx.observeRetired(tile, addr, e.Write, false, e.InvalidatedWhilePending)
	t.wakeL1(ctx.Kernel, addr)
	if done != nil {
		done()
	}
}

// ForEachCopy implements Engine.
func (p *DiCo) ForEachCopy(addr cache.Addr, fn func(CopyInfo)) {
	forEachCopy(p.tiles, p.ctx.HomeOf(addr), addr, func(l *cache.Line) (bool, bool) {
		return dcIsOwner(l.State), l.State == dcOwnerModified || l.State == dcOwnerExclusive
	}, fn)
}

// ForEachPending implements Engine.
func (p *DiCo) ForEachPending(fn func(topo.Tile, *cache.MSHREntry)) {
	forEachPending(p.tiles, fn)
}

// CheckInvariants implements Engine; call at quiescence. Verifies the
// DiCo invariants: at most one owner per block (an L1 owner XOR a home
// L2 copy), the owner's sharer vector covers every Shared copy, and
// the home L2C$ points at the actual L1 owner.
func (p *DiCo) CheckInvariants() {
	type info struct {
		owners  []topo.Tile
		holders uint64
		sharers uint64 // union of Shared-state holders
	}
	blocks := make(map[cache.Addr]*info)
	for i, t := range p.tiles {
		tile := topo.Tile(i)
		t.l1.ForEachValid(func(l *cache.Line) {
			bi := blocks[l.Addr]
			if bi == nil {
				bi = &info{}
				blocks[l.Addr] = bi
			}
			bi.holders |= bit(tile)
			if dcIsOwner(l.State) {
				bi.owners = append(bi.owners, tile)
			} else {
				bi.sharers |= bit(tile)
			}
		})
	}
	addrs := make([]cache.Addr, 0, len(blocks))
	for a := range blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		bi := blocks[addr]
		home := p.ctx.HomeOf(addr)
		th := p.tiles[home]
		l2line := th.l2.Peek(addr)
		switch len(bi.owners) {
		case 0:
			// No L1 owner: the home L2 must own the block for the
			// shared copies to be reachable.
			if bi.sharers != 0 && l2line == nil {
				panic(fmt.Sprintf("dico: block %#x has sharers %#x but no owner anywhere", addr, bi.sharers))
			}
			if l2line != nil && l2line.Sharers&bi.sharers != bi.sharers {
				panic(fmt.Sprintf("dico: block %#x L2 sharers %#x miss holders %#x", addr, l2line.Sharers, bi.sharers))
			}
		case 1:
			owner := bi.owners[0]
			ol := p.tiles[owner].l1.Peek(addr)
			if others := bi.sharers &^ bit(owner); ol.Sharers&others != others {
				panic(fmt.Sprintf("dico: block %#x owner %d sharing code %#x misses sharers %#x",
					addr, owner, ol.Sharers, others))
			}
			if ptr, ok := th.l2c.Peek(addr); ok && topo.Tile(ptr) != owner {
				panic(fmt.Sprintf("dico: block %#x L2C$ points to %d, owner is %d", addr, ptr, owner))
			}
			if ol.State == dcOwnerExclusive || ol.State == dcOwnerModified {
				if popcount(bi.holders) > 1 {
					panic(fmt.Sprintf("dico: block %#x exclusive at %d with holders %#x", addr, owner, bi.holders))
				}
			}
		default:
			panic(fmt.Sprintf("dico: block %#x has %d owners", addr, len(bi.owners)))
		}
	}
}
