package proto

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// L1 states of DiCo-Arin.
const (
	arShared cache.State = 1 + iota
	arProvider
	arOwnerShared
	arOwnerExclusive
	arOwnerModified
)

// Home L2 line forms for DiCo-Arin: a block is either owned by the L2
// (sharers of a single area tracked precisely) or shared between areas
// (one provider pointer per area, no sharer information — broadcast
// invalidation covers the copies).
const (
	l2ArinOwned cache.State = 1 + iota
	l2ArinInter
)

func arIsOwner(s cache.State) bool {
	return s == arOwnerShared || s == arOwnerExclusive || s == arOwnerModified
}

// Arin implements DiCo-Arin (Sections III-B and IV-B): DiCo behaviour
// while a block's copies stay inside one area; the first remote-area
// read dissolves ownership, parks the block in the home L2, and turns
// every copy holder into a provider. Writes to inter-area blocks use
// the paper's three-phase broadcast invalidation (block, ack,
// unblock).
type Arin struct {
	ctx   *Context
	tiles []*tileState

	// Long-lived adapters for the kernel/mesh argument fast path:
	// protocol hops travel as (fn, *arMsg) pairs instead of
	// per-message closures (see dirMsg for the pattern).
	atHomeFn  func(any)
	atL1Fn    func(any)
	invalShFn func(any)
	shAckFn   func(any)
	deliverFn func(any)
	coFn      func(any)
	coAckFn   func(any)
	memReqFn  func(any)
	memRespFn func(any)
	memFillFn func(any)
	flushFn   func(any)

	free *arMsg // message node free list
}

// arMsg is the pooled argument node for DiCo-Arin's non-capturing
// message path (see dirMsg).
type arMsg struct {
	next     *arMsg
	r        arReq
	tile     topo.Tile
	state    cache.State
	dirty    bool
	supplier int16
	stamp    sim.Time
	bcast    bool // delivery completes a three-phase broadcast write
}

// msg takes a node from the pool.
func (p *Arin) msg(r arReq) *arMsg {
	m := p.free
	if m != nil {
		p.free = m.next
	} else {
		m = &arMsg{}
	}
	m.r = r
	return m
}

// putMsg recycles a node into the pool.
func (p *Arin) putMsg(m *arMsg) {
	m.next = p.free
	p.free = m
}

// bindHandlers builds the long-lived adapter funcs once.
func (p *Arin) bindHandlers() {
	p.atHomeFn = func(a any) {
		m := a.(*arMsg)
		r := m.r
		p.putMsg(m)
		p.atHome(r)
	}
	p.atL1Fn = func(a any) {
		m := a.(*arMsg)
		r, tile := m.r, m.tile
		p.putMsg(m)
		p.atL1(r, tile)
	}
	p.invalShFn = func(a any) {
		m := a.(*arMsg)
		tile, addr, requestor := m.tile, m.r.addr, m.r.requestor
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		p.invalidateSharer(ctx, tile, addr, requestor)
	}
	p.shAckFn = func(a any) {
		m := a.(*arMsg)
		requestor, addr := m.tile, m.r.addr
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		if e, ok := p.tiles[requestor].mshr.Lookup(addr); ok {
			e.SharerAcks--
			p.maybeComplete(ctx, requestor, addr)
		}
	}
	p.deliverFn = func(a any) {
		m := a.(*arMsg)
		r, state, dirty, supplier, bcast := m.r, m.state, m.dirty, m.supplier, m.bcast
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
			if bcast && e.SharerAcks == 0 {
				// Every broadcast ack beat the data here: run phase
				// three (the unblock) now.
				p.unblockAfterWrite(ctx, r)
			}
		}
		p.maybeComplete(ctx, r.requestor, r.addr)
	}
	// coFn lands a Change_Owner at the home; the node travels on to
	// carry the gating ack back to the new owner.
	p.coFn = func(a any) {
		m := a.(*arMsg)
		addr, newOwner, stamp := m.r.addr, m.tile, m.stamp
		home := p.ctx.HomeOf(addr)
		ctx := p.ctx
		ctx.chargeVM(newOwner)
		p.homeOwnerUpdate(ctx, home, addr, newOwner, stamp)
		ctx.SendCtlArg(home, newOwner, p.coAckFn, m)
	}
	p.coAckFn = func(a any) {
		m := a.(*arMsg)
		requestor, addr := m.tile, m.r.addr
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		if e, ok := p.tiles[requestor].mshr.Lookup(addr); ok {
			e.HomeAck--
			p.maybeComplete(ctx, requestor, addr)
		}
	}
	// Memory fetch pipeline.
	p.memReqFn = func(a any) {
		m := a.(*arMsg)
		ctx := p.ctx
		ctx.MemFetch(p.memRespFn, m)
	}
	p.memRespFn = func(a any) {
		m := a.(*arMsg)
		mc := p.ctx.Mem.For(m.r.addr)
		ctx := p.ctx
		ctx.chargeVM(m.r.requestor)
		home := ctx.HomeOf(m.r.addr)
		d2 := ctx.SendDataArg(mc, home, p.memFillFn, m)
		m.r.links += int16(d2.Hops)
	}
	p.memFillFn = func(a any) {
		m := a.(*arMsg)
		r := m.r
		home := p.ctx.HomeOf(r.addr)
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(r.requestor)
		state, dirty := arOwnerExclusive, false
		if r.write {
			state, dirty = arOwnerModified, true
		}
		p.deliver(ctx, r, home, state, dirty, -1)
	}
	// flushFn runs at the memory controller tile boxed in the argument.
	p.flushFn = func(a any) { p.ctx.MemFlush() }
}

// NewArin builds the DiCo-Arin engine on ctx.
func NewArin(ctx *Context) *Arin {
	ctx.bindPower()
	if ctx.Areas.Count > cache.MaxSimAreas {
		panic(fmt.Sprintf("arin: %d areas exceed the simulator's limit of %d",
			ctx.Areas.Count, cache.MaxSimAreas))
	}
	n := ctx.NumTiles()
	p := &Arin{
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
func (p *Arin) Name() string { return "arin" }

// Stats implements Engine.
func (p *Arin) Stats() *stats.Set { return &p.ctx.Counters }

// MissProfile implements Engine.
func (p *Arin) MissProfile() MissProfile { return p.ctx.Profile }

func (p *Arin) areaOf(t topo.Tile) int   { return p.ctx.Areas.Of(t) }
func (p *Arin) areaIdx(t topo.Tile) int8 { return int8(p.ctx.Areas.IndexInArea(t)) }
func (p *Arin) tileAt(area int, idx int8) topo.Tile {
	return p.ctx.Areas.TilesIn(area)[idx]
}

type arReq struct {
	addr      cache.Addr
	requestor topo.Tile
	write     bool
	predicted bool
	forwards  int
	forwarder topo.Tile // -1 unless an L1 forwarded this request
	// Ride-the-message fields (see dirReq): requestor-MSHR updates
	// accumulated along the miss and applied at delivery.
	links    int16 // mesh links traversed by the request legs
	acks     int16 // sharer/broadcast acks the write must collect
	homeAck  int8  // pending Change_Owner / unblock gates
	clsPlus1 int8  // resolved MissClass + 1 (0 = not resolved yet)
}

// Access implements Engine.
func (p *Arin) Access(tile topo.Tile, addr cache.Addr, write bool, onDone func()) {
	ctx := p.ctx
	ctx.chargeVM(tile)
	t := p.tiles[tile]
	if _, pending := t.mshr.Lookup(addr); pending {
		t.stallL1(addr, func() { p.Access(tile, addr, write, onDone) })
		return
	}
	if t.blocked(addr) {
		// Three-phase broadcast in progress: wait for the unblock.
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
		switch line.State {
		case arOwnerModified, arOwnerExclusive:
			line.State = arOwnerModified
			line.Dirty = true
			ctx.pw.L1DataWrite.Inc()
			ctx.Profile.Hits++
			ctx.observeRetired(tile, addr, true, true, false)
			ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
			return
		case arOwnerShared:
			p.ownerWriteHit(tile, addr, line, onDone)
			return
		}
		// Shared or provider copy under a write: full miss path (the
		// home decides between owner transfer and broadcast).
	}
	e := t.mshr.Allocate(addr, write, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	ctx.spanBegin(tile, addr, write)
	r := arReq{addr: addr, requestor: tile, write: write, forwarder: -1}
	ctx.pw.L1CAccess.Inc()
	if ptr, ok := t.l1c.Lookup(addr); ok && topo.Tile(ptr) != tile && !ctx.Cfg.NoPrediction {
		r.predicted = true
		e.Tag = int(MissPredFail)
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

// ownerWriteHit: an intra-area owner invalidates its sharers locally,
// exactly like DiCo.
func (p *Arin) ownerWriteHit(tile topo.Tile, addr cache.Addr, line *cache.Line, onDone func()) {
	ctx := p.ctx
	t := p.tiles[tile]
	area := p.areaOf(tile)
	sharers := line.Sharers &^ areaBit(ctx.Areas, tile)
	if sharers == 0 {
		line.State = arOwnerModified
		line.Dirty = true
		ctx.pw.L1DataWrite.Inc()
		ctx.Profile.Hits++
		ctx.observeRetired(tile, addr, true, true, false)
		ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
		return
	}
	e := t.mshr.Allocate(addr, true, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	e.Tag = int(MissPredOwner)
	ctx.spanBegin(tile, addr, true)
	ctx.spanEvent("owner-write-inv", tile)
	e.DataReceived = true
	e.SharerAcks = popcount(sharers)
	for v := sharers; v != 0; v &= v - 1 {
		sharer := p.tileAt(area, int8(bits.TrailingZeros64(v)))
		m := p.msg(arReq{addr: addr, requestor: tile})
		m.tile = sharer
		ctx.SendCtlArg(tile, sharer, p.invalShFn, m)
	}
	line.State = arOwnerModified
	line.Dirty = true
	line.Sharers = 0
	ctx.pw.L1DataWrite.Inc()
	ctx.pw.L1TagWrite.Inc()
}

func (p *Arin) invalidateSharer(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
	t := p.tiles[tile]
	ctx.pw.L1TagRead.Inc()
	if _, ok := t.l1.Invalidate(addr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := t.mshr.Lookup(addr); ok {
		e.InvalidatedWhilePending = true
	}
	t.l1c.Update(addr, int16(requestor))
	ctx.pw.L1CUpdate.Inc()
	m := p.msg(arReq{addr: addr})
	m.tile = requestor
	ctx.SendCtlArg(tile, requestor, p.shAckFn, m)
}

// atL1 handles a request at an L1 cache.
func (p *Arin) atL1(r arReq, tile topo.Tile) {
	ctx := p.ctx
	ctx.chargeVM(r.requestor)
	t := p.tiles[tile]
	if _, pending := t.mshr.Lookup(r.addr); pending {
		// Pooled-arg stalls: a closure here would capture r and force
		// it to the heap on every atL1 call, not just the stalled ones.
		m := p.msg(r)
		m.tile = tile
		t.stallL1Arg(r.addr, p.atL1Fn, m)
		return
	}
	if t.blocked(r.addr) {
		m := p.msg(r)
		m.tile = tile
		t.stallL1Arg(r.addr, p.atL1Fn, m)
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Lookup(r.addr)
	switch {
	case line != nil && arIsOwner(line.State):
		if r.write {
			p.ownerWriteSupply(ctx, r, tile, line)
			return
		}
		if p.areaOf(r.requestor) == p.areaOf(tile) {
			// Local read: plain DiCo behaviour.
			p.classifyMiss(&r, byOwner)
			line.Sharers |= areaBit(ctx.Areas, r.requestor)
			if line.State != arOwnerShared {
				line.State = arOwnerShared
			}
			ctx.pw.L1TagWrite.Inc()
			ctx.pw.L1DataRead.Inc()
			p.deliver(ctx, r, tile, arShared, false, int16(tile))
			return
		}
		p.dissolveOwnership(ctx, r, tile, line)
	case line != nil && line.State == arProvider && !r.write &&
		p.areaOf(r.requestor) == p.areaOf(tile):
		if ctx.tracing(r.addr) {
			ctx.Trace(r.addr, "provider %d supplies %d", tile, r.requestor)
		}
		// A provider supplies inside its area; the new copy is a
		// provider too (Section IV-B's optimization).
		p.classifyMiss(&r, byProvider)
		ctx.pw.L1DataRead.Inc()
		p.deliver(ctx, r, tile, arProvider, false, int16(tile))
	default:
		// Forward to the home, recording the forwarder so the home
		// can refresh a stale provider pointer (Section IV-B).
		r.forwards++
		r.forwarder = tile
		home := ctx.HomeOf(r.addr)
		m := p.msg(r)
		del := ctx.SendCtlArg(tile, home, p.atHomeFn, m)
		m.r.links += int16(del.Hops)
	}
}

// dissolveOwnership is the heart of DiCo-Arin (Section III-B): a read
// from a remote area reaches the L1 owner; the ownership disappears,
// the former owner becomes a provider, the home L2 receives the data
// (and becomes a provider), and the requestor becomes a provider.
func (p *Arin) dissolveOwnership(ctx *Context, r arReq, owner topo.Tile, line *cache.Line) {
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "dissolve at owner %d for %d", owner, r.requestor)
	}
	p.classifyMiss(&r, byOwner)
	ownerArea := p.areaOf(owner)
	dirty := line.Dirty
	line.State = arProvider
	line.Dirty = false
	line.Sharers = 0 // former sharers survive silently; broadcast covers them
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, owner, arProvider, false, int16(owner))
	home := ctx.HomeOf(r.addr)
	reqArea := p.areaOf(r.requestor)
	ctx.SendData(owner, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(r.addr, hctx.Kernel.Now())
		var propos [cache.MaxSimAreas]int8
		for a := range propos {
			propos[a] = -1
		}
		propos[ownerArea] = p.areaIdx(owner)
		propos[reqArea] = p.areaIdx(r.requestor)
		p.insertL2Inter(hctx, home, r.addr, dirty, propos, func() {
			if p.tiles[home].l2c.Invalidate(r.addr) {
				hctx.pw.L2CUpdate.Inc()
			}
			p.tiles[home].clearRecall(r.addr)
			p.tiles[home].wakeHome(hctx.Kernel, r.addr)
		})
	})
}

// ownerWriteSupply: intra-area ownership transfer, as in DiCo.
func (p *Arin) ownerWriteSupply(ctx *Context, r arReq, owner topo.Tile, line *cache.Line) {
	p.classifyMiss(&r, byOwner)
	area := p.areaOf(owner)
	sharers := line.Sharers &^ areaBit(ctx.Areas, owner)
	if p.areaOf(r.requestor) == area {
		sharers &^= areaBit(ctx.Areas, r.requestor)
	}
	// The ack expectations ride to the requestor with the data; an ack
	// arriving first drives its MSHR counter transiently negative,
	// which Done() tolerates.
	r.acks += int16(popcount(sharers))
	r.homeAck++
	for v := sharers; v != 0; v &= v - 1 {
		sharer := p.tileAt(area, int8(bits.TrailingZeros64(v)))
		m := p.msg(arReq{addr: r.addr, requestor: r.requestor})
		m.tile = sharer
		ctx.SendCtlArg(owner, sharer, p.invalShFn, m)
	}
	ctx.pw.L1DataRead.Inc()
	ctx.pw.L1TagWrite.Inc()
	p.tiles[owner].l1.Invalidate(r.addr)
	p.tiles[owner].l1c.Update(r.addr, int16(r.requestor))
	ctx.pw.L1CUpdate.Inc()
	p.deliver(ctx, r, owner, arOwnerModified, true, -1)
	home := ctx.HomeOf(r.addr)
	m := p.msg(arReq{addr: r.addr})
	m.tile = r.requestor
	m.stamp = ctx.Kernel.Now()
	ctx.SendCtlArg(owner, home, p.coFn, m) // Change_Owner
}

// atHome dispatches at the home bank.
func (p *Arin) atHome(r arReq) {
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
		ownerTile := topo.Tile(ptr)
		if ownerTile == r.requestor || r.forwards >= maxForwards {
			ctx.spanRetry(r.requestor)
			// The retry keeps the accumulated rides: those hops and ack
			// expectations really happened.
			nr := r
			nr.forwards = 0
			nr.forwarder = -1
			ctx.Kernel.AfterArg(retryBackoff, p.atHomeFn, p.msg(nr))
			return
		}
		r.forwards++
		ctx.spanEvent("home-forward-owner", home)
		m := p.msg(r)
		m.tile = ownerTile
		del := ctx.SendCtlArg(home, ownerTile, p.atL1Fn, m)
		m.r.links += int16(del.Hops)
		return
	}
	l2line := th.l2.Lookup(r.addr)
	if l2line != nil {
		// A stale Change_Owner may have re-installed an L2C$ pointer
		// after the block returned home; the L2 line wins.
		if th.l2c.Invalidate(r.addr) {
			ctx.pw.L2CUpdate.Inc()
		}
	}
	if l2line == nil {
		// Not on chip: the pooled node rides the whole request ->
		// latency -> data pipeline (memReqFn/memRespFn/memFillFn).
		p.updateL2C(ctx, home, r.addr, r.requestor)
		mc := ctx.Mem.For(r.addr)
		m := p.msg(r)
		del := ctx.SendCtlArg(home, mc, p.memReqFn, m)
		m.r.links += int16(del.Hops)
		return
	}
	if l2line.State == l2ArinInter {
		p.homeInter(ctx, r, home, l2line)
		return
	}
	p.homeOwned(ctx, r, home, l2line)
}

// homeInter serves a request for a block shared between areas: the
// block is always present in the home L2 (the design decision that
// removes DiCo-Providers' 5-hop path).
func (p *Arin) homeInter(ctx *Context, r arReq, home topo.Tile, l2line *cache.Line) {
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "home-inter %d serves %d write=%v fwd=%d", home, r.requestor, r.write, r.forwarder)
	}
	th := p.tiles[home]
	reqArea := p.areaOf(r.requestor)
	if r.write {
		p.broadcastInvalidation(ctx, r, home, l2line)
		return
	}
	// Stale-provider fixup: the forwarder is no longer a provider.
	if r.forwarder >= 0 {
		fwdArea := p.areaOf(r.forwarder)
		if l2line.ProPos[fwdArea] == p.areaIdx(r.forwarder) {
			if fwdArea == reqArea {
				l2line.ProPos[fwdArea] = p.areaIdx(r.requestor)
			} else {
				l2line.ProPos[fwdArea] = -1
			}
			ctx.pw.L2TagWrite.Inc()
		}
	}
	p.classifyMiss(&r, byHome)
	ctx.pw.L2DataRead.Inc()
	// The reply carries the identity of the area's provider so the
	// requestor's L1C$ points at it for the next miss.
	hint := int16(-1)
	if l2line.ProPos[reqArea] >= 0 {
		provTile := p.tileAt(reqArea, l2line.ProPos[reqArea])
		if provTile != r.requestor {
			hint = int16(provTile)
		}
	} else {
		l2line.ProPos[reqArea] = p.areaIdx(r.requestor)
		ctx.pw.L2TagWrite.Inc()
	}
	th.l2.Touch(l2line)
	p.deliver(ctx, r, home, arProvider, false, hint)
}

// homeOwned serves a request when the home L2 owns the block with
// (at most) one area's sharers tracked precisely.
func (p *Arin) homeOwned(ctx *Context, r arReq, home topo.Tile, l2line *cache.Line) {
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "home-owned %d serves %d write=%v areatag=%d sharers=%#x", home, r.requestor, r.write, l2line.AreaTag, l2line.Sharers)
	}
	th := p.tiles[home]
	reqArea := p.areaOf(r.requestor)
	if r.write {
		// L2-owner write: invalidate the tracked sharers, transfer
		// ownership to the writer. The ack expectations ride on the
		// data message.
		p.classifyMiss(&r, byHome)
		var sharers uint64
		area := int(l2line.AreaTag)
		if area >= 0 {
			sharers = l2line.Sharers
			if area == reqArea {
				sharers &^= areaBit(ctx.Areas, r.requestor)
			}
		}
		r.acks += int16(popcount(sharers))
		for v := sharers; v != 0; v &= v - 1 {
			sharer := p.tileAt(area, int8(bits.TrailingZeros64(v)))
			m := p.msg(arReq{addr: r.addr, requestor: r.requestor})
			m.tile = sharer
			ctx.SendCtlArg(home, sharer, p.invalShFn, m)
		}
		ctx.pw.L2DataRead.Inc()
		th.l2.Invalidate(r.addr)
		ctx.pw.L2TagWrite.Inc()
		p.updateL2C(ctx, home, r.addr, r.requestor)
		p.deliver(ctx, r, home, arOwnerModified, true, -1)
		return
	}
	// Read with the L2 as owner.
	if int(l2line.AreaTag) == reqArea || l2line.AreaTag < 0 {
		p.classifyMiss(&r, byHome)
		if l2line.AreaTag < 0 {
			l2line.AreaTag = int8(reqArea)
		}
		l2line.Sharers |= areaBit(ctx.Areas, r.requestor)
		ctx.pw.L2DataRead.Inc()
		ctx.pw.L2TagWrite.Inc()
		p.deliver(ctx, r, home, arShared, false, -1)
		return
	}
	// A second area starts reading: the block becomes shared between
	// areas. The previously tracked sharers silently become
	// broadcast-covered copies.
	p.classifyMiss(&r, byHome)
	l2line.State = l2ArinInter
	for a := range l2line.ProPos {
		l2line.ProPos[a] = -1
	}
	l2line.ProPos[reqArea] = p.areaIdx(r.requestor)
	l2line.Sharers = 0
	l2line.AreaTag = -1
	ctx.pw.L2DataRead.Inc()
	ctx.pw.L2TagWrite.Inc()
	p.deliver(ctx, r, home, arProvider, false, -1)
}

// broadcastInvalidation is the three-phase mechanism of Section IV-B1
// for a write to an inter-area block: (1) the home broadcasts the
// invalidation and every L1 blocks the address, (2) every L1 acks the
// requestor, (3) the requestor broadcasts the unblock.
func (p *Arin) broadcastInvalidation(ctx *Context, r arReq, home topo.Tile, l2line *cache.Line) {
	if ctx.tracing(r.addr) {
		ctx.Trace(r.addr, "broadcast inv from home %d for writer %d", home, r.requestor)
	}
	th := p.tiles[home]
	p.classifyMiss(&r, byHome)
	th.setHomeBusy(r.addr)
	th.l2.Invalidate(r.addr)
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataRead.Inc()
	p.updateL2C(ctx, home, r.addr, r.requestor)

	expected := ctx.NumTiles() - 1 // broadcast destinations
	if r.requestor != home {
		expected-- // the requestor does not ack itself
	}
	// The ack expectations and the unblock gate ride to the requestor
	// with the data; early acks drive the counter transiently negative.
	r.acks += int16(expected)
	r.homeAck++ // released when the unblock phase finishes
	deliverInv := func(dst topo.Tile) {
		dctx := p.ctx
		t := p.tiles[dst]
		dctx.chargeVM(r.requestor)
		dctx.pw.L1TagRead.Inc()
		if _, ok := t.l1.Invalidate(r.addr); ok {
			dctx.pw.L1TagWrite.Inc()
		}
		if e, ok := t.mshr.Lookup(r.addr); ok && dst != r.requestor {
			e.InvalidatedWhilePending = true
		}
		t.l1c.Update(r.addr, int16(r.requestor))
		dctx.pw.L1CUpdate.Inc()
		if dst == r.requestor {
			return
		}
		t.setBlocked(r.addr)
		dctx.SendCtl(dst, r.requestor, func() {
			rctx := p.ctx
			if e, ok := p.tiles[r.requestor].mshr.Lookup(r.addr); ok {
				e.SharerAcks--
				if e.SharerAcks == 0 && e.DataReceived {
					p.unblockAfterWrite(rctx, r)
				}
			}
		})
	}
	// The mesh broadcast excludes the source tile: invalidate the home
	// tile's own L1 copy inline (it is not among the counted acks).
	ctx.pw.L1TagRead.Inc()
	if _, ok := th.l1.Invalidate(r.addr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := th.mshr.Lookup(r.addr); ok && home != r.requestor {
		e.InvalidatedWhilePending = true
	}
	ctx.spanEvent("bcast-inv", home)
	if ctx.Cfg.BroadcastUnicast {
		ctx.Net.UnicastBroadcast(home, ctx.Net.Config().ControlFlits, deliverInv)
	} else {
		ctx.Net.Broadcast(home, ctx.Net.Config().ControlFlits, deliverInv)
	}
	p.deliverBcast(ctx, r, home)
}

// unblockAfterWrite is phase three: the requestor broadcasts the
// unblock, every L1 resumes, and the home releases the block. It runs
// at the requestor (from the delivery or the last ack).
func (p *Arin) unblockAfterWrite(ctx *Context, r arReq) {
	home := ctx.HomeOf(r.addr)
	e, ok := p.tiles[r.requestor].mshr.Lookup(r.addr)
	if !ok || e.HomeAck <= 0 {
		return // already unblocked
	}
	deliverUnblock := func(dst topo.Tile) {
		dctx := p.ctx
		t := p.tiles[dst]
		if t.blocked(r.addr) {
			t.clearBlocked(r.addr)
			t.wakeL1(dctx.Kernel, r.addr)
		}
		if dst == home {
			th := p.tiles[home]
			th.clearHomeBusy(r.addr)
			th.wakeHome(dctx.Kernel, r.addr)
		}
	}
	ctx.spanEvent("bcast-unblock", r.requestor)
	if ctx.Cfg.BroadcastUnicast {
		ctx.Net.UnicastBroadcast(r.requestor, ctx.Net.Config().ControlFlits, deliverUnblock)
	} else {
		ctx.Net.Broadcast(r.requestor, ctx.Net.Config().ControlFlits, deliverUnblock)
	}
	if r.requestor == home {
		th := p.tiles[home]
		th.clearHomeBusy(r.addr)
		th.wakeHome(ctx.Kernel, r.addr)
	}
	e.HomeAck--
	p.maybeComplete(ctx, r.requestor, r.addr)
}

// evictL2Inter invalidates every copy of an inter-area victim block
// via broadcast, acks collected at the home (Section IV-B1's
// replacement variant), then calls then.
func (p *Arin) evictL2Inter(ctx *Context, home topo.Tile, victim cache.Line, then func()) {
	if ctx.tracing(victim.Addr) {
		ctx.Trace(victim.Addr, "L2 inter eviction at %d", home)
	}
	th := p.tiles[home]
	victimAddr := victim.Addr
	th.setHomeBusy(victimAddr)
	// pending lives at the home; the ack sends below run there, so
	// every mutation is home-local.
	pending := ctx.NumTiles() - 1
	finishAcks := func() {
		hctx := p.ctx
		// Phase three: home broadcasts the unblock.
		deliverUnblock := func(dst topo.Tile) {
			dctx := p.ctx
			t := p.tiles[dst]
			if t.blocked(victimAddr) {
				t.clearBlocked(victimAddr)
				t.wakeL1(dctx.Kernel, victimAddr)
			}
		}
		if hctx.Cfg.BroadcastUnicast {
			hctx.Net.UnicastBroadcast(home, hctx.Net.Config().ControlFlits, deliverUnblock)
		} else {
			hctx.Net.Broadcast(home, hctx.Net.Config().ControlFlits, deliverUnblock)
		}
		if victim.Dirty {
			mc := hctx.Mem.For(victimAddr)
			hctx.SendDataArg(home, mc, p.flushFn, mc)
		}
		th.clearHomeBusy(victimAddr)
		th.wakeHome(hctx.Kernel, victimAddr)
		then()
	}
	deliverInv := func(dst topo.Tile) {
		dctx := p.ctx
		t := p.tiles[dst]
		dctx.pw.L1TagRead.Inc()
		if _, ok := t.l1.Invalidate(victimAddr); ok {
			dctx.pw.L1TagWrite.Inc()
		}
		if e, ok := t.mshr.Lookup(victimAddr); ok {
			e.InvalidatedWhilePending = true
		}
		t.setBlocked(victimAddr)
		dctx.SendCtl(dst, home, func() {
			pending--
			if pending == 0 {
				finishAcks()
			}
		})
	}
	// Invalidate the home tile's own L1 copy inline (the broadcast
	// excludes the source tile, and its ack is not counted).
	ctx.pw.L1TagRead.Inc()
	if _, ok := th.l1.Invalidate(victimAddr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := th.mshr.Lookup(victimAddr); ok {
		e.InvalidatedWhilePending = true
	}
	if ctx.Cfg.BroadcastUnicast {
		ctx.Net.UnicastBroadcast(home, ctx.Net.Config().ControlFlits, deliverInv)
	} else {
		ctx.Net.Broadcast(home, ctx.Net.Config().ControlFlits, deliverInv)
	}
}

// deliver sends the block to the requestor and completes on arrival
// (in deliverFn).
func (p *Arin) deliver(ctx *Context, r arReq, from topo.Tile, state cache.State, dirty bool, supplier int16) {
	m := p.msg(r)
	m.state, m.dirty, m.supplier, m.bcast = state, dirty, supplier, false
	del := ctx.SendDataArg(from, r.requestor, p.deliverFn, m)
	m.r.links += int16(del.Hops)
}

// deliverBcast is deliver for a three-phase broadcast write: the
// delivery additionally checks whether every ack already arrived and,
// if so, runs the unblock phase.
func (p *Arin) deliverBcast(ctx *Context, r arReq, from topo.Tile) {
	m := p.msg(r)
	m.state, m.dirty, m.supplier, m.bcast = arOwnerModified, true, -1, true
	del := ctx.SendDataArg(from, r.requestor, p.deliverFn, m)
	m.r.links += int16(del.Hops)
}

// fillL1 installs the block; the supplier hint (provider or owner)
// goes into the line for L1C$ retention on eviction.
func (p *Arin) fillL1(ctx *Context, tile topo.Tile, addr cache.Addr, state cache.State, dirty bool, supplier int16) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "fill at %d state=%d", tile, state)
	}
	t := p.tiles[tile]
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataWrite.Inc()
	if line := t.l1.Peek(addr); line != nil {
		line.State = state
		line.Dirty = line.Dirty || dirty
		line.Sharers = 0
		if supplier >= 0 {
			line.Owner = supplier
		} else {
			line.Owner = -1
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
	t.l1c.Invalidate(addr)
}

// evictL1: shared and provider copies leave silently (the provider
// pointer at the home is refreshed lazily by the forwarder fixup);
// owners transfer to a local sharer or write back to the home.
func (p *Arin) evictL1(ctx *Context, tile topo.Tile, victim cache.Line) {
	if ctx.tracing(victim.Addr) {
		ctx.Trace(victim.Addr, "L1 evict at %d state=%d", tile, victim.State)
	}
	t := p.tiles[tile]
	switch victim.State {
	case arShared, arProvider:
		if victim.Owner >= 0 {
			t.l1c.Update(victim.Addr, victim.Owner)
			ctx.pw.L1CUpdate.Inc()
		}
	default: // owner states
		area := p.areaOf(tile)
		sharers := victim.Sharers &^ areaBit(ctx.Areas, tile)
		if sharers != 0 {
			p.transferOwnership(ctx, tile, victim.Addr, area, sharers, sharers, victim.Dirty)
		} else {
			p.writebackToHome(ctx, tile, victim.Addr, victim.Dirty, area, 0)
		}
	}
}

// transferOwnership passes ownership to a sharer in the owner's area.
// The data rides the offer chain, so when every candidate declines it
// writes back from wherever the chain ends — each send's source is the
// executing tile.
func (p *Arin) transferOwnership(ctx *Context, from topo.Tile, addr cache.Addr, area int,
	tryList, vector uint64, dirty bool) {
	idx := int8(-1)
	forEachBit(tryList, func(i int) {
		if idx < 0 {
			idx = int8(i)
		}
	})
	if idx < 0 {
		p.writebackToHome(ctx, from, addr, dirty, area, vector)
		return
	}
	target := p.tileAt(area, idx)
	rest := tryList &^ (uint64(1) << uint(idx))
	ctx.SendCtl(from, target, func() {
		tctx := p.ctx
		t := p.tiles[target]
		if _, pending := t.mshr.Lookup(addr); pending {
			// Skip (never stall behind) a candidate with a miss in
			// flight; it stays in the vector so the next owner's code
			// covers its fill.
			p.transferOwnership(tctx, target, addr, area, rest, vector, dirty)
			return
		}
		tctx.pw.L1TagRead.Inc()
		line := t.l1.Peek(addr)
		if line == nil || line.State != arShared {
			p.transferOwnership(tctx, target, addr, area, rest, vector&^(uint64(1)<<uint(idx)), dirty)
			return
		}
		line.State = arOwnerShared
		line.Dirty = dirty
		line.Sharers = vector &^ (uint64(1) << uint(idx))
		line.Owner = -1
		tctx.pw.L1TagWrite.Inc()
		home := tctx.HomeOf(addr)
		stamp := tctx.Kernel.Now()
		tctx.SendCtl(target, home, func() {
			hctx := p.ctx
			p.homeOwnerUpdate(hctx, home, addr, target, stamp)
			hctx.SendCtl(home, target, func() {}) // ack
		})
		forEachBit(vector&^(uint64(1)<<uint(idx)), func(i int) {
			sharer := p.tileAt(area, int8(i))
			tctx.SendCtl(target, sharer, func() {
				sctx := p.ctx
				st := p.tiles[sharer]
				if l := st.l1.Peek(addr); l != nil && l.State == arShared {
					l.Owner = int16(target)
				} else {
					st.l1c.Update(addr, int16(target))
					sctx.pw.L1CUpdate.Inc()
				}
			})
		})
	})
}

// writebackToHome returns ownership to the home, which becomes an
// owner-form L2 entry tracking any leftover sharers of the owner's
// area (a conservative superset is safe).
func (p *Arin) writebackToHome(ctx *Context, tile topo.Tile, addr cache.Addr, dirty bool, area int, leftover uint64) {
	home := ctx.HomeOf(addr)
	areaTag := int8(-1)
	if leftover != 0 {
		areaTag = int8(area)
	}
	ctx.pw.L1DataRead.Inc()
	ctx.SendData(tile, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(addr, hctx.Kernel.Now())
		p.insertL2Owned(hctx, home, addr, dirty, areaTag, leftover, func() {
			if p.tiles[home].l2c.Invalidate(addr) {
				hctx.pw.L2CUpdate.Inc()
			}
			p.tiles[home].clearRecall(addr)
			p.tiles[home].wakeHome(hctx.Kernel, addr)
		})
	})
}

func (p *Arin) homeOwnerUpdate(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile, stamp sim.Time) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "home owner update -> %d (stamp %d)", owner, stamp)
	}
	th := p.tiles[home]
	if !th.stampIfNewer(addr, stamp) {
		return
	}
	p.updateL2C(ctx, home, addr, owner)
	th.clearRecall(addr)
	th.wakeHome(ctx.Kernel, addr)
}

func (p *Arin) updateL2C(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	th := p.tiles[home]
	evicted, evictedPtr, displaced := th.l2c.Update(addr, int16(owner))
	ctx.pw.L2CUpdate.Inc()
	if displaced {
		p.recallOwnership(ctx, home, evicted, topo.Tile(evictedPtr))
	}
}

// recallOwnership returns an L1 owner's block to the home when its
// L2C$ entry is displaced. The former owner stays on as a sharer of
// an owner-form home entry. The evicted pointer names the owner
// directly, so the recall is a single message — no chip-wide L1 scan.
// The pointer may be stale (ownership in motion); relinquish's guards
// handle that: a pending miss stalls the recall behind it, a
// non-owner drops it and the in-flight Change_Owner clears the marker
// when it lands.
func (p *Arin) recallOwnership(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "recall issued from home %d", home)
	}
	p.tiles[home].markRecall(addr)
	ctx.SendCtl(home, owner, func() { p.relinquish(home, owner, addr) })
}

func (p *Arin) relinquish(home, owner topo.Tile, addr cache.Addr) {
	ctx := p.ctx
	if ctx.tracing(addr) {
		ctx.Trace(addr, "relinquish at %d", owner)
	}
	t := p.tiles[owner]
	if _, pending := t.mshr.Lookup(addr); pending {
		t.stallL1(addr, func() { p.relinquish(home, owner, addr) })
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Peek(addr)
	if line == nil || !arIsOwner(line.State) {
		// Stale recall: ownership moved on. The Change_Owner that moved
		// it clears the recall marker at the home.
		if ctx.tracing(addr) {
			ctx.Trace(addr, "relinquish at %d found no owner line", owner)
		}
		return
	}
	area := p.areaOf(owner)
	dirty := line.Dirty
	sharers := (line.Sharers | areaBit(ctx.Areas, owner))
	line.State = arShared
	line.Dirty = false
	line.Sharers = 0
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	ctx.SendData(owner, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(addr, hctx.Kernel.Now())
		p.insertL2Owned(hctx, home, addr, dirty, int8(area), sharers, func() {
			if p.tiles[home].l2c.Invalidate(addr) {
				hctx.pw.L2CUpdate.Inc()
			}
			p.tiles[home].clearRecall(addr)
			p.tiles[home].wakeHome(hctx.Kernel, addr)
		})
	})
}

// insertL2Owned installs an owner-form entry at the home.
func (p *Arin) insertL2Owned(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool,
	areaTag int8, sharers uint64, then func()) {
	p.insertL2(ctx, home, addr, dirty, l2ArinOwned, areaTag, sharers, nil, then)
}

// insertL2Inter installs an inter-area entry at the home.
func (p *Arin) insertL2Inter(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool,
	propos [cache.MaxSimAreas]int8, then func()) {
	p.insertL2(ctx, home, addr, dirty, l2ArinInter, -1, 0, &propos, then)
}

func (p *Arin) insertL2(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool, state cache.State,
	areaTag int8, sharers uint64, propos *[cache.MaxSimAreas]int8, then func()) {
	if ctx.tracing(addr) {
		ctx.Trace(addr, "insert L2 at %d form=%d areatag=%d sharers=%#x", home, state, areaTag, sharers)
	}
	th := p.tiles[home]
	apply := func(line *cache.Line) {
		line.Dirty = line.Dirty || dirty
		line.AreaTag = areaTag
		if state == l2ArinInter {
			if propos != nil {
				copy(line.ProPos[:], propos[:])
			}
			line.Sharers = 0
		} else {
			line.Sharers = sharers
			for a := range line.ProPos {
				line.ProPos[a] = -1
			}
		}
		if then != nil {
			then()
		}
	}
	if line := th.l2.Peek(addr); line != nil {
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataWrite.Inc()
		line.State = state
		th.l2.Touch(line)
		apply(line)
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
		retry := func() { p.insertL2(ctx, home, addr, dirty, state, areaTag, sharers, propos, then) }
		if snapshot.State == l2ArinInter {
			p.evictL2Inter(ctx, home, snapshot, retry)
		} else {
			p.evictL2OwnedVictim(ctx, home, snapshot, retry)
		}
		return
	}
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataWrite.Inc()
	th.l2.Fill(victim, addr, state)
	apply(victim)
}

// evictL2OwnedVictim invalidates an owner-form victim's tracked
// sharers (a single area: cheap unicasts), then proceeds. The pending
// counter is touched only at the home tile: every ack closure executes
// there.
func (p *Arin) evictL2OwnedVictim(ctx *Context, home topo.Tile, victim cache.Line, then func()) {
	if ctx.tracing(victim.Addr) {
		ctx.Trace(victim.Addr, "L2 owned eviction at %d sharers=%#x", home, victim.Sharers)
	}
	th := p.tiles[home]
	victimAddr := victim.Addr
	sharers := victim.Sharers
	area := int(victim.AreaTag)
	th.setHomeBusy(victimAddr)
	pending := 0
	if area >= 0 {
		pending = popcount(sharers)
	}
	finish := func() {
		hctx := p.ctx
		if victim.Dirty {
			mc := hctx.Mem.For(victimAddr)
			hctx.SendDataArg(home, mc, p.flushFn, mc)
		}
		th.clearHomeBusy(victimAddr)
		th.wakeHome(hctx.Kernel, victimAddr)
		then()
	}
	if pending == 0 {
		finish()
		return
	}
	forEachBit(sharers, func(i int) {
		sharer := p.tileAt(area, int8(i))
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

// classifyMiss resolves the miss class and stores it on the request so
// it rides to the requestor with the data message.
func (p *Arin) classifyMiss(r *arReq, kind supplierKind) {
	r.clsPlus1 = int8(classify(r.predicted, r.forwards, kind)) + 1
}

func (p *Arin) maybeComplete(ctx *Context, tile topo.Tile, addr cache.Addr) {
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
func (p *Arin) ForEachCopy(addr cache.Addr, fn func(CopyInfo)) {
	forEachCopy(p.tiles, p.ctx.HomeOf(addr), addr, func(l *cache.Line) (bool, bool) {
		return arIsOwner(l.State), l.State == arOwnerModified || l.State == arOwnerExclusive
	}, fn)
}

// ForEachPending implements Engine.
func (p *Arin) ForEachPending(fn func(topo.Tile, *cache.MSHREntry)) {
	forEachPending(p.tiles, fn)
}

// CheckInvariants implements Engine; call at quiescence. Checks the
// DiCo-Arin invariants: at most one owner chip-wide; an owned block's
// copies stay in the owner's area and are covered by its sharing code;
// inter-area blocks are present in the home L2; provider copies exist
// only for blocks whose home entry is inter-area (or mid-transition).
func (p *Arin) CheckInvariants() {
	ctx := p.ctx
	type info struct {
		owner   topo.Tile
		holders map[topo.Tile]cache.State
	}
	blocks := make(map[cache.Addr]*info)
	for i, t := range p.tiles {
		tile := topo.Tile(i)
		t.l1.ForEachValid(func(l *cache.Line) {
			bi := blocks[l.Addr]
			if bi == nil {
				bi = &info{owner: -1, holders: map[topo.Tile]cache.State{}}
				blocks[l.Addr] = bi
			}
			bi.holders[tile] = l.State
			if arIsOwner(l.State) {
				if bi.owner >= 0 {
					panic(fmt.Sprintf("arin: block %#x has two owners (%d, %d)", l.Addr, bi.owner, tile))
				}
				bi.owner = tile
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
		home := ctx.HomeOf(addr)
		th := p.tiles[home]
		l2line := th.l2.Peek(addr)
		if bi.owner >= 0 {
			ol := p.tiles[bi.owner].l1.Peek(addr)
			if ol.State == arOwnerExclusive || ol.State == arOwnerModified {
				if len(bi.holders) > 1 {
					panic(fmt.Sprintf("arin: block %#x exclusive at %d with %d holders",
						addr, bi.owner, len(bi.holders)))
				}
			}
			// Shared copies tracked by the owner must be in its area.
			area := p.areaOf(bi.owner)
			for t, s := range bi.holders {
				if s == arShared && p.areaOf(t) == area {
					if ol.Sharers&areaBit(ctx.Areas, t) == 0 {
						panic(fmt.Sprintf("arin: block %#x sharer %d not in owner %d's code",
							addr, t, bi.owner))
					}
				}
			}
			if ptr, ok := th.l2c.Peek(addr); ok && topo.Tile(ptr) != bi.owner {
				panic(fmt.Sprintf("arin: block %#x L2C$ %d != owner %d", addr, ptr, bi.owner))
			}
			continue
		}
		// No L1 owner: a home L2 copy must exist for any holders.
		if l2line == nil {
			panic(fmt.Sprintf("arin: block %#x cached (%v) with no owner and no L2 copy",
				addr, bi.holders))
		}
		hasProvider := false
		for _, s := range bi.holders {
			if s == arProvider {
				hasProvider = true
			}
		}
		if hasProvider && l2line.State != l2ArinInter {
			panic(fmt.Sprintf("arin: block %#x has providers but home entry is owner-form", addr))
		}
	}
}

var _ = mesh.Stats{} // mesh types used in broadcast paths above
