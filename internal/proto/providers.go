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

// L1 states of DiCo-Providers. Owners track their area's sharers (an
// nta-bit vector) plus one provider pointer per remote area; providers
// track their own area's sharers.
const (
	pvShared cache.State = 1 + iota
	pvProvider
	pvOwnerShared
	pvOwnerExclusive
	pvOwnerModified
)

func pvIsOwner(s cache.State) bool {
	return s == pvOwnerShared || s == pvOwnerExclusive || s == pvOwnerModified
}

// Providers implements DiCo-Providers (Section III-A and Tables I/II):
// coherence information is kept per area, every area can have a
// provider able to supply deduplicated data without leaving the area,
// and a single ordering point (the owner) remains so the protocol has
// one level like a flat directory.
type Providers struct {
	ctx   *Context
	tiles []*tileState

	// Long-lived adapters for the kernel/mesh argument fast path:
	// protocol hops travel as (fn, *pvMsg) pairs instead of
	// per-message closures (see dirMsg for the pattern).
	atHomeFn  func(any)
	atL1Fn    func(any)
	invalShFn func(any)
	invalPvFn func(any)
	shAckFn   func(any)
	pvAckFn   func(any)
	deliverFn func(any)
	coFn      func(any)
	coAckFn   func(any)
	memReqFn  func(any)
	memRespFn func(any)
	memFillFn func(any)
	flushFn   func(any)

	free *pvMsg // message node free list

	// deferred holds the departures of providers that were evicted
	// while their own Change_Provider was still pending (see depart).
	deferred map[pvTileAddr]pvDeparture
}

// pvTileAddr names one block at one tile.
type pvTileAddr struct {
	tile topo.Tile
	addr cache.Addr
}

// pvDeparture is a provider's departure that waits for the owner's
// answer to its Change_Provider: the area sharers it tracked and its
// owner hint.
type pvDeparture struct {
	sharers   uint64
	ownerHint int16
}

// pvMsg is the pooled argument node for DiCo-Providers' non-capturing
// message path (see dirMsg).
type pvMsg struct {
	next     *pvMsg
	r        pvReq
	tile     topo.Tile
	state    cache.State
	dirty    bool
	supplier int16
	stamp    sim.Time
	count    int // sharer acks folded into a provider ack
	propos   [cache.MaxSimAreas]int8
	hasPro   bool // propos is meaningful (deliver's *propos != nil)
}

// msg takes a node from the pool.
func (p *Providers) msg(r pvReq) *pvMsg {
	m := p.free
	if m != nil {
		p.free = m.next
	} else {
		m = &pvMsg{}
	}
	m.r = r
	return m
}

// putMsg recycles a node into the pool.
func (p *Providers) putMsg(m *pvMsg) {
	m.next = p.free
	p.free = m
}

// bindHandlers builds the long-lived adapter funcs once.
func (p *Providers) bindHandlers() {
	p.atHomeFn = func(a any) {
		m := a.(*pvMsg)
		r := m.r
		p.putMsg(m)
		p.atHome(r)
	}
	p.atL1Fn = func(a any) {
		m := a.(*pvMsg)
		r, tile := m.r, m.tile
		p.putMsg(m)
		p.atL1(r, tile)
	}
	p.invalShFn = func(a any) {
		m := a.(*pvMsg)
		tile, addr, requestor := m.tile, m.r.addr, m.r.requestor
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		p.invalidateSharer(ctx, tile, addr, requestor)
	}
	p.invalPvFn = func(a any) {
		m := a.(*pvMsg)
		tile, addr, requestor := m.tile, m.r.addr, m.r.requestor
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		p.invalidateProvider(ctx, tile, addr, requestor)
	}
	p.shAckFn = func(a any) {
		m := a.(*pvMsg)
		requestor, addr := m.tile, m.r.addr
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		if e, ok := p.tiles[requestor].mshr.Lookup(addr); ok {
			e.SharerAcks--
			p.maybeComplete(ctx, requestor, addr)
		}
	}
	p.pvAckFn = func(a any) {
		m := a.(*pvMsg)
		requestor, addr, count := m.tile, m.r.addr, m.count
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(requestor)
		if e, ok := p.tiles[requestor].mshr.Lookup(addr); ok {
			e.ProviderAcks--
			e.SharerAcks += count
			p.maybeComplete(ctx, requestor, addr)
		}
	}
	p.deliverFn = func(a any) {
		m := a.(*pvMsg)
		r := m.r
		ctx := p.ctx
		ctx.chargeVM(r.requestor)
		var propos *[cache.MaxSimAreas]int8
		if m.hasPro {
			propos = &m.propos
		}
		// fillL1 may draw fresh nodes from the pool (self-sharer
		// invalidations), so m is recycled only after it returns.
		p.fillL1(ctx, r, m.state, m.dirty, m.supplier, propos)
		p.putMsg(m)
		if e, ok := p.tiles[r.requestor].mshr.Lookup(r.addr); ok {
			e.DataReceived = true
			e.Links += int(r.links)
			e.SharerAcks += int(r.acks)
			e.ProviderAcks += int(r.provAcks)
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
		m := a.(*pvMsg)
		addr, newOwner, stamp := m.r.addr, m.tile, m.stamp
		home := p.ctx.HomeOf(addr)
		ctx := p.ctx
		ctx.chargeVM(newOwner)
		p.homeOwnerUpdate(ctx, home, addr, newOwner, stamp)
		ctx.SendCtlArg(home, newOwner, p.coAckFn, m)
	}
	p.coAckFn = func(a any) {
		m := a.(*pvMsg)
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
		m := a.(*pvMsg)
		ctx := p.ctx
		ctx.MemFetch(p.memRespFn, m)
	}
	p.memRespFn = func(a any) {
		m := a.(*pvMsg)
		mc := p.ctx.Mem.For(m.r.addr)
		ctx := p.ctx
		ctx.chargeVM(m.r.requestor)
		home := ctx.HomeOf(m.r.addr)
		d2 := ctx.SendDataArg(mc, home, p.memFillFn, m)
		m.r.links += int16(d2.Hops)
	}
	p.memFillFn = func(a any) {
		m := a.(*pvMsg)
		r := m.r
		home := p.ctx.HomeOf(r.addr)
		p.putMsg(m)
		ctx := p.ctx
		ctx.chargeVM(r.requestor)
		state, dirty := pvOwnerExclusive, false
		if r.write {
			state, dirty = pvOwnerModified, true
		}
		p.deliver(ctx, r, home, state, dirty, -1, nil)
	}
	// flushFn runs at the memory controller tile boxed in the argument.
	p.flushFn = func(a any) { p.ctx.MemFlush() }
}

// NewProviders builds the DiCo-Providers engine on ctx.
func NewProviders(ctx *Context) *Providers {
	ctx.bindPower()
	if ctx.Areas.Count > cache.MaxSimAreas {
		panic(fmt.Sprintf("providers: %d areas exceed the simulator's limit of %d",
			ctx.Areas.Count, cache.MaxSimAreas))
	}
	n := ctx.NumTiles()
	p := &Providers{
		ctx:      ctx,
		tiles:    make([]*tileState, n),
		deferred: make(map[pvTileAddr]pvDeparture),
	}
	p.bindHandlers()
	for i := range p.tiles {
		p.tiles[i] = newTileState(ctx.Cfg, ctx.BankShift())
	}
	return p
}

// Name implements Engine.
func (p *Providers) Name() string { return "providers" }

// Stats implements Engine.
func (p *Providers) Stats() *stats.Set { return &p.ctx.Counters }

// MissProfile implements Engine.
func (p *Providers) MissProfile() MissProfile { return p.ctx.Profile }

func (p *Providers) areaOf(t topo.Tile) int   { return p.ctx.Areas.Of(t) }
func (p *Providers) areaIdx(t topo.Tile) int8 { return int8(p.ctx.Areas.IndexInArea(t)) }
func (p *Providers) tileAt(area int, idx int8) topo.Tile {
	return p.ctx.Areas.TilesIn(area)[idx]
}

// supplierKind classifies who supplied the data, for Figure 9b.
type supplierKind int

const (
	byOwner supplierKind = iota
	byProvider
	byHome
)

// classify returns the Figure 9b category of a miss at supply time;
// the supplier rides it to the requestor on the data message.
func classify(predicted bool, forwards int, kind supplierKind) MissClass {
	switch {
	case predicted && forwards == 0 && kind == byOwner:
		return MissPredOwner
	case predicted && forwards == 0 && kind == byProvider:
		return MissPredProvider
	case predicted:
		return MissPredFail
	case kind == byOwner:
		return MissUnpredOwner
	case kind == byProvider:
		return MissUnpredProvider
	default:
		return MissUnpredHome
	}
}

type pvReq struct {
	addr      cache.Addr
	requestor topo.Tile
	write     bool
	predicted bool
	forwards  int
	// fromOwner records the supplier that forwarded this request to a
	// provider, so a stale provider pointer can be repaired when the
	// target turns out not to be a provider (-1 otherwise).
	fromOwner topo.Tile
	// Ride-the-message fields (see dirReq): requestor-MSHR updates
	// accumulated along the miss and applied at delivery.
	links    int16 // mesh links traversed by the request legs
	acks     int16 // sharer acks the write must collect
	provAcks int16 // provider acks the write must collect
	homeAck  int8  // pending Change_Owner acks the write must collect
	clsPlus1 int8  // resolved MissClass + 1 (0 = not resolved yet)
}

// Access implements Engine.
func (p *Providers) Access(tile topo.Tile, addr cache.Addr, write bool, onDone func()) {
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
		switch line.State {
		case pvOwnerModified, pvOwnerExclusive:
			line.State = pvOwnerModified
			line.Dirty = true
			ctx.pw.L1DataWrite.Inc()
			ctx.Profile.Hits++
			ctx.observeRetired(tile, addr, true, true, false)
			ctx.Kernel.After(ctx.Cfg.L1HitLatency, onDone)
			return
		case pvOwnerShared:
			p.ownerWriteHit(tile, addr, line, onDone)
			return
		}
		// Shared or provider copy under a write: miss path. (A
		// provider-requestor invalidates its own sharers once it
		// receives the ownership — Section IV-A's special case,
		// handled at fill time.)
	} else if t.hasFlag(addr, txProvLeaving) {
		// A departed provider misses only once the owner has seen its
		// departure (see depart).
		t.stallL1(addr, func() { p.Access(tile, addr, write, onDone) })
		return
	}
	e := t.mshr.Allocate(addr, write, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	ctx.spanBegin(tile, addr, write)
	r := pvReq{addr: addr, requestor: tile, write: write, fromOwner: -1}
	ctx.pw.L1CAccess.Inc()
	if ptr, ok := t.l1c.Lookup(addr); ok && topo.Tile(ptr) != tile && !ctx.Cfg.NoPrediction {
		r.predicted = true
		e.Tag = int(MissPredFail) // upgraded at supply time
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

// ownerWriteHit: the owner writes while holding sharers/providers —
// invalidate them all from here.
func (p *Providers) ownerWriteHit(tile topo.Tile, addr cache.Addr, line *cache.Line, onDone func()) {
	ctx := p.ctx
	t := p.tiles[tile]
	localSharers := line.Sharers &^ areaBit(ctx.Areas, tile)
	nProviders := 0
	for a := 0; a < ctx.Areas.Count; a++ {
		if a != p.areaOf(tile) && line.ProPos[a] >= 0 {
			nProviders++
		}
	}
	if localSharers == 0 && nProviders == 0 {
		line.State = pvOwnerModified
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
	shAcks, provAcks := p.startInvalidation(ctx, tile, addr, line, tile, localSharers)
	e.SharerAcks += shAcks
	e.ProviderAcks += provAcks
	line.State = pvOwnerModified
	line.Dirty = true
	line.Sharers = 0
	for a := range line.ProPos {
		line.ProPos[a] = -1
	}
	ctx.pw.L1DataWrite.Inc()
	ctx.pw.L1TagWrite.Inc()
}

// startInvalidation sends invalidations for an owner's local sharers
// and provider-invalidations for every provider, returning how many
// sharer and provider acknowledgements will flow to the requestor
// (two-counter scheme of Section IV-A). The caller applies the counts
// locally (ownerWriteHit) or rides them to the requestor with the
// data (ownerWriteSupply).
func (p *Providers) startInvalidation(ctx *Context, owner topo.Tile, addr cache.Addr, line *cache.Line,
	requestor topo.Tile, localSharers uint64) (shAcks, provAcks int) {
	ownArea := p.areaOf(owner)
	// Local sharers (excluding the requestor if it is one of them).
	if p.areaOf(requestor) == ownArea {
		localSharers &^= areaBit(ctx.Areas, requestor)
	}
	shAcks = popcount(localSharers)
	for v := localSharers; v != 0; v &= v - 1 {
		sharer := p.tileAt(ownArea, int8(bits.TrailingZeros64(v)))
		m := p.msg(pvReq{addr: addr, requestor: requestor})
		m.tile = sharer
		ctx.SendCtlArg(owner, sharer, p.invalShFn, m)
	}
	// Providers in remote areas.
	for a := 0; a < ctx.Areas.Count; a++ {
		if a == ownArea || line.ProPos[a] < 0 {
			continue
		}
		prov := p.tileAt(a, line.ProPos[a])
		if prov == requestor {
			// The requestor is itself a provider; it invalidates its
			// own sharers when the ownership arrives (fill time).
			continue
		}
		provAcks++
		m := p.msg(pvReq{addr: addr, requestor: requestor})
		m.tile = prov
		ctx.SendCtlArg(owner, prov, p.invalPvFn, m)
	}
	return shAcks, provAcks
}

// invalidateSharer drops a plain sharer's copy and acks the requestor.
func (p *Providers) invalidateSharer(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
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
	m := p.msg(pvReq{addr: addr})
	m.tile = requestor
	ctx.SendCtlArg(tile, requestor, p.shAckFn, m)
}

// invalidateProvider drops a provider and its area's sharers; the
// provider acks the requestor with its sharer count (incrementing the
// requestor's sharer-ack counter) and the sharers ack directly.
func (p *Providers) invalidateProvider(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
	t := p.tiles[tile]
	ctx.pw.L1TagRead.Inc()
	area := p.areaOf(tile)
	var sharers uint64
	wasProvider := false
	if old, ok := t.l1.Invalidate(addr); ok {
		ctx.pw.L1TagWrite.Inc()
		if old.State == pvProvider {
			sharers = old.Sharers &^ areaBit(ctx.Areas, tile)
			wasProvider = true
		}
	}
	if !wasProvider {
		// Providership moved while the invalidation was in flight:
		// conservatively sweep the whole area so no sharer survives.
		for _, at := range ctx.Areas.TilesIn(area) {
			if at != tile {
				sharers |= areaBit(ctx.Areas, at)
			}
		}
	}
	if e, ok := t.mshr.Lookup(addr); ok {
		e.InvalidatedWhilePending = true
	}
	if p.areaOf(requestor) == area {
		sharers &^= areaBit(ctx.Areas, requestor)
	}
	count := popcount(sharers)
	for v := sharers; v != 0; v &= v - 1 {
		sharer := p.tileAt(area, int8(bits.TrailingZeros64(v)))
		m := p.msg(pvReq{addr: addr, requestor: requestor})
		m.tile = sharer
		ctx.SendCtlArg(tile, sharer, p.invalShFn, m)
	}
	t.l1c.Update(addr, int16(requestor))
	ctx.pw.L1CUpdate.Inc()
	m := p.msg(pvReq{addr: addr})
	m.tile = requestor
	m.count = count
	ctx.SendCtlArg(tile, requestor, p.pvAckFn, m)
}

// atL1 dispatches a request arriving at an L1 cache per Table I.
func (p *Providers) atL1(r pvReq, tile topo.Tile) {
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
	switch {
	case line != nil && pvIsOwner(line.State):
		if r.write {
			p.ownerWriteSupply(ctx, r, tile, line)
			return
		}
		p.ownerReadSupply(ctx, r, tile, line)
	case line != nil && line.State == pvProvider && !r.write:
		if p.areaOf(r.requestor) == p.areaOf(tile) {
			// Provider supplies inside the area: the shortened miss.
			r.clsPlus1 = int8(classify(r.predicted, r.forwards, byProvider)) + 1
			line.Sharers |= areaBit(ctx.Areas, r.requestor)
			ctx.pw.L1TagWrite.Inc()
			ctx.pw.L1DataRead.Inc()
			p.deliver(ctx, r, tile, pvShared, false, int16(tile), nil)
			return
		}
		fallthrough
	default:
		// Not a supplier for this request: forward to the home. If an
		// owner sent us this request believing we were a provider, its
		// pointer is stale — repair it, or reads from this area would
		// loop owner -> stale provider -> home -> owner forever. A
		// leaving tile's own update is already on its way.
		if r.fromOwner >= 0 && !t.hasFlag(r.addr, txProvLeaving) {
			p.repairStaleProPo(ctx, tile, r.addr, r.fromOwner)
		}
		r.fromOwner = -1
		r.forwards++
		home := ctx.HomeOf(r.addr)
		m := p.msg(r)
		del := ctx.SendCtlArg(tile, home, p.atHomeFn, m)
		m.r.links += int16(del.Hops)
	}
}

// ownerReadSupply implements the owner rows of Table I for reads.
func (p *Providers) ownerReadSupply(ctx *Context, r pvReq, owner topo.Tile, line *cache.Line) {
	reqArea := p.areaOf(r.requestor)
	if reqArea == p.areaOf(owner) {
		// Local request: requestor becomes a sharer.
		r.clsPlus1 = int8(classify(r.predicted, r.forwards, byOwner)) + 1
		line.Sharers |= areaBit(ctx.Areas, r.requestor)
		if line.State != pvOwnerShared {
			line.State = pvOwnerShared
		}
		ctx.pw.L1TagWrite.Inc()
		ctx.pw.L1DataRead.Inc()
		p.deliver(ctx, r, owner, pvShared, false, int16(owner), nil)
		return
	}
	if line.ProPos[reqArea] >= 0 {
		// A provider exists in the requestor's area: forward.
		prov := p.tileAt(reqArea, line.ProPos[reqArea])
		r.forwards++
		r.fromOwner = owner
		m := p.msg(r)
		m.tile = prov
		del := ctx.SendCtlArg(owner, prov, p.atL1Fn, m)
		m.r.links += int16(del.Hops)
		return
	}
	// No provider there: the requestor becomes its area's provider.
	r.clsPlus1 = int8(classify(r.predicted, r.forwards, byOwner)) + 1
	line.ProPos[reqArea] = p.areaIdx(r.requestor)
	if line.State != pvOwnerShared {
		line.State = pvOwnerShared
	}
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, owner, pvProvider, false, int16(owner), nil)
}

// ownerWriteSupply transfers ownership to the writer per Table I.
func (p *Providers) ownerWriteSupply(ctx *Context, r pvReq, owner topo.Tile, line *cache.Line) {
	r.clsPlus1 = int8(classify(r.predicted, r.forwards, byOwner)) + 1
	// The ack expectations ride to the requestor with the data; an ack
	// arriving first drives its MSHR counter transiently negative,
	// which Done() tolerates.
	r.homeAck++
	localSharers := line.Sharers &^ areaBit(ctx.Areas, owner)
	shAcks, provAcks := p.startInvalidation(ctx, owner, r.addr, line, r.requestor, localSharers)
	r.acks += int16(shAcks)
	r.provAcks += int16(provAcks)
	ctx.pw.L1DataRead.Inc()
	ctx.pw.L1TagWrite.Inc()
	p.tiles[owner].l1.Invalidate(r.addr)
	p.tiles[owner].l1c.Update(r.addr, int16(r.requestor))
	ctx.pw.L1CUpdate.Inc()
	p.deliver(ctx, r, owner, pvOwnerModified, true, -1, nil)
	home := ctx.HomeOf(r.addr)
	m := p.msg(pvReq{addr: r.addr})
	m.tile = r.requestor
	m.stamp = ctx.Kernel.Now()
	ctx.SendCtlArg(owner, home, p.coFn, m) // Change_Owner
}

// repairStaleProPo clears the stale pointer of the owner that
// forwarded a request (believing notProvider was a provider): a
// No_Provider naming notProvider, sent first to the forwarding supplier.
func (p *Providers) repairStaleProPo(ctx *Context, notProvider topo.Tile, addr cache.Addr, supplier topo.Tile) {
	p.tiles[notProvider].setFlag(addr, txProvLeaving)
	hint := int16(supplier)
	if supplier == ctx.HomeOf(addr) {
		hint = -1 // the home L2 owns the block
	}
	p.notifyOwner(ctx, notProvider, addr, hint, p.areaOf(notProvider), notProvider, -1)
}

// atHome dispatches at the home bank per the L2 rows of Table I.
func (p *Providers) atHome(r pvReq) {
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
			nr.fromOwner = -1
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
	if l2line := th.l2.Lookup(r.addr); l2line != nil {
		// A stale Change_Owner may have re-installed an L2C$ pointer
		// after the ownership returned home; the L2 line wins.
		if th.l2c.Invalidate(r.addr) {
			ctx.pw.L2CUpdate.Inc()
		}
		p.homeOwnerSupply(ctx, r, home, l2line)
		return
	}
	// Not on chip: fetch memory; requestor becomes owner (exclusive
	// for reads, modified for writes). The pooled node rides the whole
	// request -> latency -> data pipeline (memReqFn/memRespFn/memFillFn).
	p.updateL2C(ctx, home, r.addr, r.requestor)
	mc := ctx.Mem.For(r.addr)
	m := p.msg(r)
	del := ctx.SendCtlArg(home, mc, p.memReqFn, m)
	m.r.links += int16(del.Hops)
}

// homeOwnerSupply handles requests when the home L2 holds ownership.
func (p *Providers) homeOwnerSupply(ctx *Context, r pvReq, home topo.Tile, l2line *cache.Line) {
	th := p.tiles[home]
	reqArea := p.areaOf(r.requestor)
	if !r.write {
		if l2line.ProPos[reqArea] >= 0 {
			prov := p.tileAt(reqArea, l2line.ProPos[reqArea])
			if r.forwards >= maxForwards {
				ctx.spanRetry(r.requestor)
				nr := r
				nr.forwards = 0
				nr.fromOwner = -1
				ctx.Kernel.AfterArg(retryBackoff, p.atHomeFn, p.msg(nr))
				return
			}
			r.forwards++
			r.fromOwner = home
			ctx.spanEvent("home-forward-provider", home)
			m := p.msg(r)
			m.tile = prov
			del := ctx.SendCtlArg(home, prov, p.atL1Fn, m)
			m.r.links += int16(del.Hops)
			return
		}
		// No supplier in the requestor's area: ownership moves to the
		// requestor (event (3) of Section III-A).
		r.clsPlus1 = int8(classify(r.predicted, r.forwards, byHome)) + 1
		var propos [cache.MaxSimAreas]int8
		copy(propos[:], l2line.ProPos[:])
		dirty := l2line.Dirty
		ctx.pw.L2DataRead.Inc()
		th.l2.Invalidate(r.addr)
		ctx.pw.L2TagWrite.Inc()
		p.updateL2C(ctx, home, r.addr, r.requestor)
		p.deliver(ctx, r, home, pvOwnerShared, dirty, -1, &propos)
		return
	}
	// Write with the L2 as owner: invalidate through the providers,
	// hand ownership to the writer. The provider-ack expectations ride
	// to the requestor on the data message.
	r.clsPlus1 = int8(classify(r.predicted, r.forwards, byHome)) + 1
	for a := 0; a < ctx.Areas.Count; a++ {
		if l2line.ProPos[a] < 0 {
			continue
		}
		prov := p.tileAt(a, l2line.ProPos[a])
		if prov == r.requestor {
			continue // self-provider handled at fill time
		}
		r.provAcks++
		m := p.msg(pvReq{addr: r.addr, requestor: r.requestor})
		m.tile = prov
		ctx.SendCtlArg(home, prov, p.invalPvFn, m)
	}
	ctx.pw.L2DataRead.Inc()
	th.l2.Invalidate(r.addr)
	ctx.pw.L2TagWrite.Inc()
	p.updateL2C(ctx, home, r.addr, r.requestor)
	p.deliver(ctx, r, home, pvOwnerModified, true, -1, nil)
}

// deliver sends the data and installs it at the requestor (in
// deliverFn, on arrival).
func (p *Providers) deliver(ctx *Context, r pvReq, from topo.Tile, state cache.State, dirty bool,
	supplier int16, propos *[cache.MaxSimAreas]int8) {
	m := p.msg(r)
	m.state, m.dirty, m.supplier = state, dirty, supplier
	if propos != nil {
		m.propos = *propos
		m.hasPro = true
	} else {
		m.hasPro = false
	}
	del := ctx.SendDataArg(from, r.requestor, p.deliverFn, m)
	m.r.links += int16(del.Hops)
}

// fillL1 installs the block. A provider-requestor that just received
// ownership invalidates its own area's sharers now (Section IV-A's
// special case).
func (p *Providers) fillL1(ctx *Context, r pvReq, state cache.State, dirty bool,
	supplier int16, propos *[cache.MaxSimAreas]int8) {
	t := p.tiles[r.requestor]
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataWrite.Inc()
	var selfSharers uint64
	if line := t.l1.Peek(r.addr); line != nil {
		if r.write && line.State == pvProvider {
			selfSharers = line.Sharers &^ areaBit(ctx.Areas, r.requestor)
		}
		line.State = state
		line.Dirty = line.Dirty || dirty
		line.Sharers = 0
		if supplier >= 0 {
			line.Owner = supplier
		} else {
			line.Owner = -1
		}
		if propos != nil {
			copy(line.ProPos[:], propos[:])
		} else {
			for a := range line.ProPos {
				line.ProPos[a] = -1
			}
		}
		t.l1.Touch(line)
	} else {
		victim, valid := t.l1.Victim(r.addr)
		if valid {
			p.evictL1(ctx, r.requestor, *victim)
			t.l1.Invalidate(victim.Addr)
		}
		nl := victim
		t.l1.Fill(nl, r.addr, state)
		nl.Dirty = dirty
		if supplier >= 0 {
			nl.Owner = supplier
		}
		if propos != nil {
			copy(nl.ProPos[:], propos[:])
		}
		t.l1c.Invalidate(r.addr)
	}
	if selfSharers != 0 {
		// We were this area's provider; invalidate our old flock.
		if e, ok := t.mshr.Lookup(r.addr); ok {
			e.SharerAcks += popcount(selfSharers)
		}
		area := p.areaOf(r.requestor)
		for v := selfSharers; v != 0; v &= v - 1 {
			sharer := p.tileAt(area, int8(bits.TrailingZeros64(v)))
			m := p.msg(pvReq{addr: r.addr, requestor: r.requestor})
			m.tile = sharer
			ctx.SendCtlArg(r.requestor, sharer, p.invalShFn, m)
		}
	}
}

// evictL1 implements Table II.
func (p *Providers) evictL1(ctx *Context, tile topo.Tile, victim cache.Line) {
	t := p.tiles[tile]
	area := p.areaOf(tile)
	switch {
	case victim.State == pvShared:
		if victim.Owner >= 0 {
			t.l1c.Update(victim.Addr, victim.Owner)
			ctx.pw.L1CUpdate.Inc()
		}
	case victim.State == pvProvider:
		sharers := victim.Sharers &^ areaBit(ctx.Areas, tile)
		if t.hasFlag(victim.Addr, txProvPending) {
			// Our own Change_Provider is still on its way: the departure
			// waits for the owner's answer (changeDone).
			t.setFlag(victim.Addr, txProvLeaving)
			p.deferred[pvTileAddr{tile, victim.Addr}] = pvDeparture{sharers: sharers, ownerHint: victim.Owner}
			return
		}
		p.depart(ctx, tile, victim.Addr, sharers, victim.Owner)
	default: // owner states
		localSharers := victim.Sharers &^ areaBit(ctx.Areas, tile)
		if localSharers != 0 {
			p.transferOwnership(ctx, tile, victim.Addr, area, localSharers, localSharers, victim.Dirty, victim.ProPos)
		} else {
			p.writebackToHome(ctx, tile, victim.Addr, victim.Dirty, victim.ProPos, 0, area)
		}
	}
}

// depart gives up tile's providership of addr, tracking sharers: it
// hands it to one of them (transferProvidership) or, with none, sends
// No_Provider. The tile is leaving until the owner has seen the update
// that names it: its own accesses to the block stall meanwhile, so it
// cannot become a provider again while a stale update naming it is in
// flight.
func (p *Providers) depart(ctx *Context, tile topo.Tile, addr cache.Addr, sharers uint64, ownerHint int16) {
	p.tiles[tile].setFlag(addr, txProvLeaving)
	area := p.areaOf(tile)
	if sharers != 0 {
		p.transferProvidership(ctx, tile, addr, area, tile, sharers, sharers, ownerHint)
		return
	}
	p.notifyOwner(ctx, tile, addr, ownerHint, area, tile, -1) // No_Provider
}

// transferProvidership offers origin's providership to the area's
// sharers in turn; the acceptor notifies the owner with
// Change_Provider. Every hop runs at the receiving tile.
func (p *Providers) transferProvidership(ctx *Context, from topo.Tile, addr cache.Addr, area int, origin topo.Tile,
	tryList, vector uint64, ownerHint int16) {
	idx := int8(-1)
	forEachBit(tryList, func(i int) {
		if idx < 0 {
			idx = int8(i)
		}
	})
	if idx < 0 {
		// Nobody left to take it: the area loses its provider. Any
		// skipped in-flight readers would be unreachable for later
		// invalidations, so they are conservatively dropped now.
		p.invalidateStragglers(ctx, from, addr, area, vector)
		p.notifyOwner(ctx, from, addr, ownerHint, area, origin, -1)
		return
	}
	target := p.tileAt(area, idx)
	rest := tryList &^ (uint64(1) << uint(idx))
	ctx.SendCtl(from, target, func() {
		tctx := p.ctx
		t := p.tiles[target]
		if _, pending := t.mshr.Lookup(addr); pending {
			p.transferProvidership(tctx, target, addr, area, origin, rest, vector, ownerHint)
			return
		}
		tctx.pw.L1TagRead.Inc()
		line := t.l1.Peek(addr)
		if line == nil || line.State != pvShared {
			p.transferProvidership(tctx, target, addr, area, origin, rest, vector&^(uint64(1)<<uint(idx)), ownerHint)
			return
		}
		line.State = pvProvider
		line.Sharers = vector &^ (uint64(1) << uint(idx))
		line.Owner = ownerHint
		// Hint the area's sharers about the new provider (Figure 5:
		// providership moves update predictions).
		forEachBit(line.Sharers, func(i int) {
			sharer := p.tileAt(area, int8(i))
			tctx.SendCtl(target, sharer, func() {
				sctx := p.ctx
				st := p.tiles[sharer]
				if l := st.l1.Peek(addr); l != nil && l.State == pvShared {
					l.Owner = int16(target)
				} else {
					st.l1c.Update(addr, int16(target))
					sctx.pw.L1CUpdate.Inc()
				}
			})
		})
		tctx.pw.L1TagWrite.Inc()
		// Change_Provider to the owner (acked).
		t.setFlag(addr, txProvPending)
		p.notifyOwner(tctx, target, addr, ownerHint, area, origin, p.areaIdx(target))
	})
}

// notifyOwner routes a ProPos update for area to the block's owner:
// Change_Provider (from is the new provider, next its index) or
// No_Provider (next = -1). Either names origin, the provider the area
// had, as the old value. The update goes first to the hinted L1 owner,
// falls back through the home's L2C$, and finally to the home's own L2
// entry when the L2 is the owner. While ownership is in motion it
// retries from the home, so it is never lost; it is moot only once the
// block has left the chip.
//
// The update applies only if the owner still points at origin. A
// mismatch means the owner's view moved on without this change (a
// repair, a write or another update got there first): a No_Provider is
// then moot, and a Change_Provider is refused — the new provider gives
// the providership up (changeDone), so every provider on the chip is
// one its owner points at. Either way origin is released, and a
// Change_Provider's sender gets the answer.
func (p *Providers) notifyOwner(ctx *Context, from topo.Tile, addr cache.Addr, ownerHint int16,
	area int, origin topo.Tile, next int8) {
	home := ctx.HomeOf(addr)
	old := p.areaIdx(origin)
	resolve := func(at topo.Tile, applied bool) {
		if next >= 0 {
			p.ctx.SendCtl(at, from, func() { p.changeDone(from, addr, area, applied) })
		}
		p.ctx.SendCtl(at, origin, func() { p.released(origin, addr) })
	}
	// apply performs the compare-and-set on an owner's pointers.
	apply := func(propos *[cache.MaxSimAreas]int8) bool {
		if propos[area] != old {
			return false
		}
		propos[area] = next
		return true
	}
	// atL1 applies the update at tile, reporting false if tile does not
	// own the block.
	atL1 := func(tile topo.Tile) bool {
		octx := p.ctx
		octx.pw.L1TagRead.Inc()
		ol := p.tiles[tile].l1.Peek(addr)
		if ol == nil || !pvIsOwner(ol.State) {
			return false
		}
		applied := apply(&ol.ProPos)
		if applied {
			octx.pw.L1TagWrite.Inc()
		}
		resolve(tile, applied)
		return true
	}
	// viaHome probes the home from at, the tile running the caller — a
	// failed probe falls back from the probed tile, not from the
	// original sender.
	var viaHome func(at topo.Tile)
	var atHome func()
	viaHome = func(at topo.Tile) { p.ctx.SendCtl(at, home, atHome) }
	atHome = func() {
		hctx := p.ctx
		th := p.tiles[home]
		hctx.pw.L2CAccess.Inc()
		if ptr, ok := th.l2c.Lookup(addr); ok {
			ownerTile := topo.Tile(ptr)
			hctx.SendCtl(home, ownerTile, func() {
				if !atL1(ownerTile) {
					// Owner in motion: try again from the home.
					p.ctx.Kernel.After(retryBackoff, func() { viaHome(ownerTile) })
				}
			})
			return
		}
		if l2line := th.l2.Peek(addr); l2line != nil {
			applied := apply(&l2line.ProPos)
			if applied {
				hctx.pw.L2TagWrite.Inc()
			}
			resolve(home, applied)
			return
		}
		if th.recallMarked(addr) || th.homeBusy(addr) {
			// Ownership is on its way back to (or out of) the home.
			hctx.Kernel.After(retryBackoff, atHome)
			return
		}
		resolve(home, false) // the block left the chip
	}
	if ownerHint >= 0 {
		ownerTile := topo.Tile(ownerHint)
		ctx.SendCtl(from, ownerTile, func() {
			if !atL1(ownerTile) {
				viaHome(ownerTile)
			}
		})
		return
	}
	viaHome(from)
}

// released ends tile's leaving state once the update naming it has
// reached the owner, and resumes its stalled accesses.
func (p *Providers) released(tile topo.Tile, addr cache.Addr) {
	t := p.tiles[tile]
	t.clearFlag(addr, txProvLeaving)
	t.wakeL1(p.ctx.Kernel, addr)
}

// changeDone runs at a new provider when the owner has answered its
// Change_Provider. A deferred departure goes ahead now. A refused
// provider gives the providership up: it drops its copy and the area
// sharers it tracks, which nobody else knows about (their pending fills
// drop on arrival and they re-miss).
func (p *Providers) changeDone(tile topo.Tile, addr cache.Addr, area int, applied bool) {
	ctx := p.ctx
	t := p.tiles[tile]
	t.clearFlag(addr, txProvPending)
	key := pvTileAddr{tile, addr}
	if d, ok := p.deferred[key]; ok {
		delete(p.deferred, key)
		if applied {
			p.depart(ctx, tile, addr, d.sharers, d.ownerHint)
			return
		}
		p.invalidateStragglers(ctx, tile, addr, area, d.sharers)
		p.released(tile, addr)
		return
	}
	if applied {
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Peek(addr)
	if line == nil || line.State != pvProvider {
		return
	}
	sharers := line.Sharers &^ areaBit(ctx.Areas, tile)
	t.l1.Invalidate(addr)
	ctx.pw.L1TagWrite.Inc()
	p.invalidateStragglers(ctx, tile, addr, area, sharers)
}

// transferOwnership moves ownership (sharing code + provider pointers)
// to a local sharer on replacement. The data rides the offer chain, so
// when every candidate declines it writes back from wherever the chain
// ends — each send's source is the executing tile.
func (p *Providers) transferOwnership(ctx *Context, from topo.Tile, addr cache.Addr, area int,
	tryList, vector uint64, dirty bool, propos [cache.MaxSimAreas]int8) {
	idx := int8(-1)
	forEachBit(tryList, func(i int) {
		if idx < 0 {
			idx = int8(i)
		}
	})
	if idx < 0 {
		p.writebackToHome(ctx, from, addr, dirty, propos, vector, area)
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
			p.transferOwnership(tctx, target, addr, area, rest, vector, dirty, propos)
			return
		}
		tctx.pw.L1TagRead.Inc()
		line := t.l1.Peek(addr)
		if line == nil || line.State != pvShared {
			p.transferOwnership(tctx, target, addr, area, rest, vector&^(uint64(1)<<uint(idx)), dirty, propos)
			return
		}
		line.State = pvOwnerShared
		line.Dirty = dirty
		line.Sharers = vector &^ (uint64(1) << uint(idx))
		copy(line.ProPos[:], propos[:])
		line.Owner = -1
		tctx.pw.L1TagWrite.Inc()
		home := tctx.HomeOf(addr)
		stamp := tctx.Kernel.Now()
		tctx.SendCtl(target, home, func() { // Change_Owner
			hctx := p.ctx
			p.homeOwnerUpdate(hctx, home, addr, target, stamp)
			hctx.SendCtl(home, target, func() {}) // ack
		})
		// Hint the remaining local sharers (Figure 5).
		forEachBit(vector&^(uint64(1)<<uint(idx)), func(i int) {
			sharer := p.tileAt(area, int8(i))
			tctx.SendCtl(target, sharer, func() {
				sctx := p.ctx
				st := p.tiles[sharer]
				if l := st.l1.Peek(addr); l != nil && l.State == pvShared {
					l.Owner = int16(target)
				} else {
					st.l1c.Update(addr, int16(target))
					sctx.pw.L1CUpdate.Inc()
				}
			})
		})
	})
}

// writebackToHome returns ownership to the home L2 (no sharers remain
// in the owner's area, so no provider is needed there).
func (p *Providers) writebackToHome(ctx *Context, tile topo.Tile, addr cache.Addr, dirty bool,
	propos [cache.MaxSimAreas]int8, leftover uint64, leftoverArea int) {
	home := ctx.HomeOf(addr)
	propos[p.areaOf(tile)] = -1
	// The home L2-owner form keeps no sharer information (Table V), so
	// any leftover in-flight readers of the evicted owner's area are
	// conservatively invalidated: their fills drop on arrival and they
	// re-miss against the home.
	p.invalidateStragglers(ctx, tile, addr, leftoverArea, leftover)
	ctx.pw.L1DataRead.Inc()
	ctx.SendData(tile, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(addr, hctx.Kernel.Now())
		p.insertL2Owned(hctx, home, addr, dirty, propos, func() {
			if p.tiles[home].l2c.Invalidate(addr) {
				hctx.pw.L2CUpdate.Inc()
			}
			p.tiles[home].clearRecall(addr)
			p.tiles[home].wakeHome(hctx.Kernel, addr)
		})
	})
}

// invalidateStragglers fire-and-forget invalidates leftover area
// copies whose supplier went away before they could be handed over.
func (p *Providers) invalidateStragglers(ctx *Context, from topo.Tile, addr cache.Addr, area int, vector uint64) {
	if vector == 0 {
		return
	}
	forEachBit(vector, func(i int) {
		straggler := p.tileAt(area, int8(i))
		ctx.SendCtl(from, straggler, func() {
			sctx := p.ctx
			t := p.tiles[straggler]
			sctx.pw.L1TagRead.Inc()
			if l := t.l1.Peek(addr); l != nil && l.State == pvProvider {
				// Granted providership since: its owner points at it.
				return
			}
			if _, ok := t.l1.Invalidate(addr); ok {
				sctx.pw.L1TagWrite.Inc()
			}
			if e, ok := t.mshr.Lookup(addr); ok {
				e.InvalidatedWhilePending = true
			}
		})
	})
}

// homeOwnerUpdate guards the L2C$ against reordered Change_Owner
// messages, like DiCo.
func (p *Providers) homeOwnerUpdate(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile, stamp sim.Time) {
	th := p.tiles[home]
	if !th.stampIfNewer(addr, stamp) {
		return
	}
	p.updateL2C(ctx, home, addr, owner)
	th.clearRecall(addr)
	th.wakeHome(ctx.Kernel, addr)
}

// updateL2C installs an owner pointer, recalling the displaced entry's
// ownership when the insertion evicts one (Section IV-A1).
func (p *Providers) updateL2C(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	th := p.tiles[home]
	evicted, evictedPtr, displaced := th.l2c.Update(addr, int16(owner))
	ctx.pw.L2CUpdate.Inc()
	if displaced {
		p.recallOwnership(ctx, home, evicted, topo.Tile(evictedPtr))
	}
}

// recallOwnership brings a block's ownership back to the home because
// its L2C$ entry was evicted; the former owner becomes its area's
// provider. The evicted pointer names the owner directly, so the
// recall is a single message — no chip-wide L1 scan. The pointer may
// be stale (ownership in motion); relinquish's guards handle that: a
// pending miss stalls the recall behind it, a non-owner drops it and
// the in-flight Change_Owner clears the marker when it lands.
func (p *Providers) recallOwnership(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	p.tiles[home].markRecall(addr)
	ctx.SendCtl(home, owner, func() { p.relinquish(home, owner, addr) })
}

// relinquish converts an L1 owner into its area's provider, moving
// ownership (data + provider pointers) to the home L2.
func (p *Providers) relinquish(home, owner topo.Tile, addr cache.Addr) {
	ctx := p.ctx
	t := p.tiles[owner]
	if _, pending := t.mshr.Lookup(addr); pending {
		t.stallL1(addr, func() { p.relinquish(home, owner, addr) })
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Peek(addr)
	if line == nil || !pvIsOwner(line.State) {
		// Stale recall: ownership moved on. The Change_Owner that moved
		// it clears the recall marker at the home.
		return
	}
	area := p.areaOf(owner)
	var propos [cache.MaxSimAreas]int8
	copy(propos[:], line.ProPos[:])
	propos[area] = p.areaIdx(owner)
	dirty := line.Dirty
	sharers := line.Sharers
	line.State = pvProvider
	line.Dirty = false
	line.Sharers = sharers // provider keeps tracking its area's sharers
	line.Owner = -1
	for a := range line.ProPos {
		line.ProPos[a] = -1
	}
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	ctx.SendData(owner, home, func() {
		hctx := p.ctx
		p.tiles[home].setStamp(addr, hctx.Kernel.Now())
		p.insertL2Owned(hctx, home, addr, dirty, propos, func() {
			if p.tiles[home].l2c.Invalidate(addr) {
				hctx.pw.L2CUpdate.Inc()
			}
			p.tiles[home].clearRecall(addr)
			p.tiles[home].wakeHome(hctx.Kernel, addr)
		})
	})
}

// insertL2Owned installs a block in the home L2 as owner with the
// given provider pointers, evicting a victim (chip-wide invalidation
// through its providers) if needed.
func (p *Providers) insertL2Owned(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool,
	propos [cache.MaxSimAreas]int8, then func()) {
	th := p.tiles[home]
	if line := th.l2.Peek(addr); line != nil {
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataWrite.Inc()
		line.Dirty = line.Dirty || dirty
		for a := range propos {
			if propos[a] >= 0 {
				line.ProPos[a] = propos[a]
			}
		}
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
		// copies through its providers, then retry the insertion.
		snapshot := *victim
		th.l2.Invalidate(snapshot.Addr)
		ctx.pw.L2TagWrite.Inc()
		p.evictL2Owned(ctx, home, snapshot, func() {
			p.insertL2Owned(ctx, home, addr, dirty, propos, then)
		})
		return
	}
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataWrite.Inc()
	th.l2.Fill(victim, addr, l2Present)
	victim.Dirty = dirty
	copy(victim.ProPos[:], propos[:])
	if then != nil {
		then()
	}
}

// evictL2Owned invalidates an L2-owned victim block through its
// providers (two-counter scheme, with the home as both owner and
// requestor), writes dirty data to memory, then calls then. The
// pending counters live at the home and every mutation of them runs
// at the home (the ack sends below); provider- and sharer-side work
// runs at the executing tile.
func (p *Providers) evictL2Owned(ctx *Context, home topo.Tile, victim cache.Line, then func()) {
	th := p.tiles[home]
	victimAddr := victim.Addr
	th.setHomeBusy(victimAddr)
	pendingProv := 0
	pendingSharers := 0
	var finish func()
	checkDone := func() {
		if pendingProv == 0 && pendingSharers == 0 {
			finish()
		}
	}
	finish = func() {
		hctx := p.ctx
		if victim.Dirty {
			mc := hctx.Mem.For(victimAddr)
			hctx.SendDataArg(home, mc, p.flushFn, mc)
		}
		th.clearHomeBusy(victimAddr)
		th.wakeHome(hctx.Kernel, victimAddr)
		then()
	}
	for a := 0; a < ctx.Areas.Count; a++ {
		if victim.ProPos[a] < 0 {
			continue
		}
		pendingProv++
		prov := p.tileAt(a, victim.ProPos[a])
		area := a
		ctx.SendCtl(home, prov, func() {
			pctx := p.ctx
			t := p.tiles[prov]
			pctx.pw.L1TagRead.Inc()
			var sharers uint64
			wasProvider := false
			if old, ok := t.l1.Invalidate(victimAddr); ok {
				pctx.pw.L1TagWrite.Inc()
				if old.State == pvProvider {
					sharers = old.Sharers &^ areaBit(pctx.Areas, prov)
					wasProvider = true
				}
			}
			if !wasProvider {
				for _, at := range pctx.Areas.TilesIn(area) {
					if at != prov {
						sharers |= areaBit(pctx.Areas, at)
					}
				}
			}
			if e, ok := t.mshr.Lookup(victimAddr); ok {
				e.InvalidatedWhilePending = true
			}
			count := popcount(sharers)
			forEachBit(sharers, func(i int) {
				sharer := p.tileAt(area, int8(i))
				pctx.SendCtl(prov, sharer, func() {
					sctx := p.ctx
					st := p.tiles[sharer]
					sctx.pw.L1TagRead.Inc()
					if _, ok := st.l1.Invalidate(victimAddr); ok {
						sctx.pw.L1TagWrite.Inc()
					}
					if e, ok := st.mshr.Lookup(victimAddr); ok {
						e.InvalidatedWhilePending = true
					}
					sctx.SendCtl(sharer, home, func() {
						pendingSharers--
						checkDone()
					})
				})
			})
			pctx.SendCtl(prov, home, func() {
				pendingProv--
				pendingSharers += count
				checkDone()
			})
		})
	}
	if pendingProv == 0 {
		finish()
	}
}

func (p *Providers) maybeComplete(ctx *Context, tile topo.Tile, addr cache.Addr) {
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
func (p *Providers) ForEachCopy(addr cache.Addr, fn func(CopyInfo)) {
	forEachCopy(p.tiles, p.ctx.HomeOf(addr), addr, func(l *cache.Line) (bool, bool) {
		return pvIsOwner(l.State), l.State == pvOwnerModified || l.State == pvOwnerExclusive
	}, fn)
}

// ForEachPending implements Engine.
func (p *Providers) ForEachPending(fn func(topo.Tile, *cache.MSHREntry)) {
	forEachPending(p.tiles, fn)
}

// CheckInvariants implements Engine; call at quiescence. Checks the
// per-area invariants of DiCo-Providers: at most one owner chip-wide,
// at most one provider per area, the owner's ProPos point at the real
// providers, and every plain sharer is covered by its area's supplier.
func (p *Providers) CheckInvariants() {
	ctx := p.ctx
	type info struct {
		owner     topo.Tile
		providers map[int]topo.Tile
		holders   map[topo.Tile]cache.State
	}
	blocks := make(map[cache.Addr]*info)
	get := func(a cache.Addr) *info {
		bi := blocks[a]
		if bi == nil {
			bi = &info{owner: -1, providers: map[int]topo.Tile{}, holders: map[topo.Tile]cache.State{}}
			blocks[a] = bi
		}
		return bi
	}
	for i, t := range p.tiles {
		tile := topo.Tile(i)
		t.l1.ForEachValid(func(l *cache.Line) {
			bi := get(l.Addr)
			bi.holders[tile] = l.State
			switch {
			case pvIsOwner(l.State):
				if bi.owner >= 0 {
					panic(fmt.Sprintf("providers: block %#x has two owners (%d, %d)", l.Addr, bi.owner, tile))
				}
				bi.owner = tile
			case l.State == pvProvider:
				area := p.areaOf(tile)
				if prev, ok := bi.providers[area]; ok {
					panic(fmt.Sprintf("providers: block %#x has two providers in area %d (%d, %d)",
						l.Addr, area, prev, tile))
				}
				bi.providers[area] = tile
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
		// Ownership must exist somewhere if any copy exists.
		if bi.owner < 0 && l2line == nil {
			panic(fmt.Sprintf("providers: block %#x cached with no owner (holders %v)", addr, bi.holders))
		}
		// Owner's provider pointers must match the real providers.
		var propos *[cache.MaxSimAreas]int8
		ownerArea := -1
		if bi.owner >= 0 {
			ol := p.tiles[bi.owner].l1.Peek(addr)
			propos = &ol.ProPos
			ownerArea = p.areaOf(bi.owner)
			if ol.State == pvOwnerExclusive || ol.State == pvOwnerModified {
				if len(bi.holders) > 1 {
					panic(fmt.Sprintf("providers: block %#x exclusive at %d with %d holders",
						addr, bi.owner, len(bi.holders)))
				}
			}
			if ptr, ok := th.l2c.Peek(addr); ok && topo.Tile(ptr) != bi.owner {
				panic(fmt.Sprintf("providers: block %#x L2C$ %d != owner %d", addr, ptr, bi.owner))
			}
		} else if l2line != nil {
			propos = &l2line.ProPos
		}
		for area, prov := range bi.providers {
			if area == ownerArea {
				panic(fmt.Sprintf("providers: block %#x has provider %d in the owner's area", addr, prov))
			}
			if propos != nil && propos[area] >= 0 && p.tileAt(area, propos[area]) != prov {
				panic(fmt.Sprintf("providers: block %#x ProPos[%d]=%d but provider is %d",
					addr, area, propos[area], prov))
			}
		}
	}
}
