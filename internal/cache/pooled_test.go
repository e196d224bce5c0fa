package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// geometries covers 1-way sets, a single set, odd associativity (the
// directory's extra way) and a shifted set index.
var geometries = []struct {
	sets, ways int
	shift      uint
}{
	{1, 1, 0}, {1, 4, 0}, {4, 1, 0}, {8, 2, 0}, {16, 8, 0}, {4, 9, 0}, {8, 4, 2},
}

// linePair is one line handed out by both models for the same way.
type linePair struct {
	p, d *Line
}

// TestCachePooledMatchesDense drives random operation sequences
// against the pooled Cache and the dense reference and requires
// identical results, counters and contents at every step.
func TestCachePooledMatchesDense(t *testing.T) {
	for _, g := range geometries {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d>>%d/seed%d", g.sets, g.ways, g.shift, seed), func(t *testing.T) {
				runCacheDifferential(t, g.sets, g.ways, g.shift, seed, 3000)
			})
		}
	}
}

func runCacheDifferential(t *testing.T, sets, ways int, shift uint, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p, d := New("p", sets, ways), newDenseCache(sets, ways)
	p.SetIndexShift(shift)
	d.shift = shift
	// Twice the capacity in distinct blocks, so sets fill and evict.
	span := Addr(2 * sets * ways << shift)
	var held []linePair
	hold := func(lp, ld *Line) {
		if (lp == nil) != (ld == nil) {
			t.Fatalf("pooled returned %v, dense %v", lp, ld)
		}
		if lp == nil {
			return
		}
		if *lp != *ld {
			t.Fatalf("line contents differ: pooled %+v, dense %+v", *lp, *ld)
		}
		held = append(held, linePair{lp, ld})
		if len(held) > 16 {
			held = held[1:]
		}
	}
	pick := func() (linePair, bool) {
		if len(held) == 0 {
			return linePair{}, false
		}
		return held[rng.Intn(len(held))], true
	}
	for step := 0; step < steps; step++ {
		a := Addr(rng.Int63n(int64(span)))
		switch op := rng.Intn(10); op {
		case 0:
			hold(p.Lookup(a), d.Lookup(a))
		case 1:
			hold(p.Peek(a), d.Peek(a))
		case 2, 3:
			lp, hp, vp := p.Probe(a)
			ld, hd, vd := d.Probe(a)
			if hp != hd || vp != vd {
				t.Fatalf("step %d Probe(%#x): pooled hit=%v valid=%v, dense hit=%v valid=%v", step, a, hp, vp, hd, vd)
			}
			hold(lp, ld)
			if !hp && rng.Intn(4) != 0 {
				s := State(1 + rng.Intn(3))
				p.Fill(lp, a, s)
				d.Fill(ld, a, s)
			}
		case 4:
			lp, vp := p.Victim(a)
			ld, vd := d.Victim(a)
			if vp != vd {
				t.Fatalf("step %d Victim(%#x): pooled valid=%v, dense valid=%v", step, a, vp, vd)
			}
			hold(lp, ld)
			if p.Peek(a) == nil && rng.Intn(2) == 0 {
				p.Fill(lp, a, 1)
				d.Fill(ld, a, 1)
			}
		case 5:
			if h, ok := pick(); ok {
				p.Touch(h.p)
				d.Touch(h.d)
			}
		case 6:
			// Engines write metadata through the pointers they hold.
			if h, ok := pick(); ok {
				sh, own, dirty := rng.Uint64(), int16(rng.Intn(64)), rng.Intn(2) == 0
				pp := int8(rng.Intn(8))
				for _, l := range []*Line{h.p, h.d} {
					l.Sharers, l.Owner, l.Dirty, l.ProPos[pp] = sh, own, dirty, pp
				}
			}
		case 7:
			op, okp := p.Invalidate(a)
			od, okd := d.Invalidate(a)
			if okp != okd || op != od {
				t.Fatalf("step %d Invalidate(%#x): pooled %+v,%v dense %+v,%v", step, a, op, okp, od, okd)
			}
		case 8:
			if h, ok := pick(); ok && h.d.Valid() && d.Peek(h.d.Addr) == h.d {
				if op, od := p.InvalidateLine(h.p), d.InvalidateLine(h.d); op != od {
					t.Fatalf("step %d InvalidateLine: pooled %+v, dense %+v", step, op, od)
				}
			}
		case 9:
			if cp, cd := p.CountValid(), d.CountValid(); cp != cd {
				t.Fatalf("step %d CountValid: pooled %d, dense %d", step, cp, cd)
			}
			var vp, vd []Line
			p.ForEachValid(func(l *Line) { vp = append(vp, *l) })
			d.ForEachValid(func(l *Line) { vd = append(vd, *l) })
			if !reflect.DeepEqual(vp, vd) {
				t.Fatalf("step %d ForEachValid differs", step)
			}
		}
		if p.Accesses != d.Accesses || p.Misses != d.Misses {
			t.Fatalf("step %d: accesses/misses pooled %d/%d, dense %d/%d", step, p.Accesses, p.Misses, d.Accesses, d.Misses)
		}
		if cp, cd := cacheContents(p), d.contents(); !reflect.DeepEqual(cp, cd) {
			t.Fatalf("step %d: contents differ", step)
		}
		if p.bound > p.Capacity() {
			t.Fatalf("step %d: %d ways bound, capacity %d", step, p.bound, p.Capacity())
		}
	}
}

type entryPair struct {
	p *DirEntry
	d *denseDirEntry
}

// TestDirCachePooledMatchesDense is the differential test for the
// directory cache: Peek, Probe (with victim address), Fill, Touch,
// writes through held entries.
func TestDirCachePooledMatchesDense(t *testing.T) {
	for _, g := range geometries {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d>>%d/seed%d", g.sets, g.ways, g.shift, seed), func(t *testing.T) {
				runDirDifferential(t, g.sets, g.ways, g.shift, seed, 3000)
			})
		}
	}
}

func runDirDifferential(t *testing.T, sets, ways int, shift uint, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p, d := NewDirCache("p", sets, ways), newDenseDirCache(sets, ways)
	p.SetIndexShift(shift)
	d.shift = shift
	span := Addr(2 * sets * ways << shift)
	var held []entryPair
	hold := func(ep *DirEntry, ed *denseDirEntry) {
		if (ep == nil) != (ed == nil) {
			t.Fatalf("pooled returned %v, dense %v", ep, ed)
		}
		if ep == nil {
			return
		}
		if ep.Sharers != ed.Sharers || ep.Owner != ed.Owner {
			t.Fatalf("entry differs: pooled %+v, dense %+v", *ep, *ed)
		}
		held = append(held, entryPair{ep, ed})
		if len(held) > 16 {
			held = held[1:]
		}
	}
	for step := 0; step < steps; step++ {
		a := Addr(rng.Int63n(int64(span)))
		switch rng.Intn(5) {
		case 0:
			hold(p.Peek(a), d.Peek(a))
		case 1, 2:
			ep, vap, hp, vp := p.Probe(a)
			ed, vad, hd, vd := d.Probe(a)
			if hp != hd || vp != vd || vap != vad {
				t.Fatalf("step %d Probe(%#x): pooled %v,%v,%#x dense %v,%v,%#x", step, a, hp, vp, vap, hd, vd, vad)
			}
			hold(ep, ed)
			if !hp && rng.Intn(4) != 0 {
				p.Fill(ep, a)
				d.Fill(ed, a)
				sh, own := rng.Uint64(), int16(rng.Intn(64)-1)
				ep.Sharers, ep.Owner = sh, own
				ed.Sharers, ed.Owner = sh, own
			}
		case 3:
			if len(held) > 0 {
				h := held[rng.Intn(len(held))]
				p.Touch(h.p)
				d.Touch(h.d)
			}
		case 4:
			if len(held) > 0 {
				h := held[rng.Intn(len(held))]
				sh := rng.Uint64()
				h.p.Sharers, h.d.Sharers = sh, sh
			}
		}
		if cp, cd := dirContents(p), d.contents(); !reflect.DeepEqual(cp, cd) {
			t.Fatalf("step %d: contents differ", step)
		}
	}
}

// TestCachePoolBound: the pool holds one Line per way ever handed out
// by Probe or Victim — never more — so a cache that sees far fewer
// distinct blocks than its capacity stays far below it.
func TestCachePoolBound(t *testing.T) {
	c := New("l2", 2048, 8)
	rng := rand.New(rand.NewSource(1))
	handed := map[int]bool{}
	const fills = 4000
	for i := 0; i < fills; i++ {
		a := Addr(rng.Int63n(1 << 30))
		l, hit, _ := c.Probe(a)
		handed[c.indexOf(l)] = true
		if !hit {
			c.Fill(l, a, 1)
		}
	}
	if c.bound > len(handed) {
		t.Errorf("pool holds %d lines for %d distinct ways handed out", c.bound, len(handed))
	}
	if c.bound > c.Capacity()/4 {
		t.Errorf("pool holds %d lines after %d fills, capacity %d", c.bound, fills, c.Capacity())
	}
	if chunks := len(c.lines); chunks*chunkSize > c.bound+1+chunkSize {
		t.Errorf("%d chunks for %d bound lines", chunks, c.bound)
	}

	d := NewDirCache("dir", 2048, 9)
	for i := 0; i < fills; i++ {
		a := Addr(rng.Int63n(1 << 30))
		if e, _, hit, _ := d.Probe(a); !hit {
			d.Fill(e, a)
		}
	}
	if d.bound > fills || d.bound > 2048*9/4 {
		t.Errorf("directory pool holds %d entries after %d fills", d.bound, fills)
	}
}

// TestFillAddrLimit pins the block-address bound the packed tag relies
// on: the last representable block round-trips, the next one panics.
func TestFillAddrLimit(t *testing.T) {
	c := New("l2", 4, 2)
	last := AddrLimit - 1
	v, _ := c.Victim(last)
	c.Fill(v, last, 1)
	if l := c.Peek(last); l == nil || l.Addr != last {
		t.Fatalf("block %#x not found after fill", last)
	}
	d := NewDirCache("dir", 4, 2)
	e, _, _, _ := d.Probe(last)
	d.Fill(e, last)
	if d.Peek(last) != e {
		t.Fatalf("directory block %#x not found after fill", last)
	}
	for name, fill := range map[string]func(){
		"Cache":    func() { v, _ := c.Victim(AddrLimit); c.Fill(v, AddrLimit, 1) },
		"DirCache": func() { e, _, _, _ := d.Probe(AddrLimit); d.Fill(e, AddrLimit) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Fill(%#x) did not panic", name, AddrLimit)
				}
			}()
			fill()
		}()
	}
}

// TestMissFillNoAllocs: once every way of a set is bound, the miss path
// (Probe, then Fill the victim) never allocates, in Cache or DirCache.
func TestMissFillNoAllocs(t *testing.T) {
	c := New("l2", 64, 8)
	d := NewDirCache("dir", 64, 9)
	a := Addr(0)
	next := func() {
		a++
		if l, hit, _ := c.Probe(a); !hit {
			c.Fill(l, a, 1)
		}
		if e, _, hit, _ := d.Probe(a); !hit {
			d.Fill(e, a)
		}
	}
	for i := 0; i < 64*9; i++ {
		next()
	}
	if n := testing.AllocsPerRun(1000, next); n != 0 {
		t.Errorf("miss path allocates %.1f times per run", n)
	}
}
