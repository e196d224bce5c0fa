package cache

import (
	"testing"
	"testing/quick"
)

// fillBlock installs a block through the Victim/Fill pair, as the
// protocol engines do.
func fillBlock(c *Cache, a Addr, s State) {
	v, _ := c.Victim(a)
	c.Fill(v, a, s)
}

func TestCacheLookupMissThenHit(t *testing.T) {
	c := New("l1", 4, 2)
	if c.Lookup(0x100) != nil {
		t.Fatal("hit in empty cache")
	}
	v, valid := c.Victim(0x100)
	if v == nil || valid {
		t.Fatal("no invalid victim in empty cache")
	}
	c.Fill(v, 0x100, State(1))
	l := c.Lookup(0x100)
	if l == nil || l.Addr != 0x100 || l.State != State(1) {
		t.Fatal("fill then lookup failed")
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("accesses/misses = %d/%d, want 2/1", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New("l1", 1, 2) // one set, two ways
	a, b, d := Addr(1), Addr(2), Addr(3)
	fillBlock(c, a, 1)
	fillBlock(c, b, 1)
	c.Lookup(a) // a is now MRU
	v, _ := c.Victim(d)
	if v.Addr != b {
		t.Errorf("victim = %#x, want %#x (LRU)", v.Addr, b)
	}
	c.Fill(v, d, 1)
	if c.Peek(b) != nil {
		t.Error("evicted block still present")
	}
	if c.Peek(a) == nil || c.Peek(d) == nil {
		t.Error("resident blocks lost")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := New("l1", 4, 1)
	// Addresses mapping to different sets must not evict each other.
	for i := Addr(0); i < 4; i++ {
		fillBlock(c, i, 1)
	}
	for i := Addr(0); i < 4; i++ {
		if c.Peek(i) == nil {
			t.Fatalf("block %d evicted despite distinct sets", i)
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := New("l1", 2, 2)
	fillBlock(c, 5, 2)
	old, ok := c.Invalidate(5)
	if !ok || old.Addr != 5 || old.State != 2 {
		t.Fatal("invalidate did not return prior contents")
	}
	if c.Peek(5) != nil {
		t.Fatal("block present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate reported success")
	}
}

func TestCacheMetaReset(t *testing.T) {
	c := New("l1", 2, 1)
	v, _ := c.Victim(1)
	c.Fill(v, 1, 1)
	v.Sharers = 0xff
	v.Owner = 3
	v.ProPos[0] = 2
	v.Dirty = true
	c.Invalidate(1)
	v2, _ := c.Victim(1)
	c.Fill(v2, 1, 1)
	if v2.Sharers != 0 || v2.Owner != -1 || v2.ProPos[0] != -1 || v2.Dirty {
		t.Error("Fill did not reset metadata")
	}
}

func TestCacheCountValidAndForEach(t *testing.T) {
	c := New("l2", 8, 2)
	for i := Addr(0); i < 5; i++ {
		fillBlock(c, i, 1)
	}
	if got := c.CountValid(); got != 5 {
		t.Errorf("CountValid = %d, want 5", got)
	}
	seen := 0
	c.ForEachValid(func(l *Line) { seen++ })
	if seen != 5 {
		t.Errorf("ForEachValid visited %d, want 5", seen)
	}
}

func TestCachePropertyNoDuplicates(t *testing.T) {
	c := New("p", 8, 4)
	if err := quick.Check(func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := Addr(a % 256)
			if c.Lookup(addr) == nil {
				fillBlock(c, addr, 1)
			}
		}
		// No address may appear twice.
		seen := make(map[Addr]int)
		c.ForEachValid(func(l *Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.CountValid() <= c.Capacity()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCacheBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 3, 2) },
		func() { New("x", 0, 2) },
		func() { New("x", 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPointerCacheBasics(t *testing.T) {
	p := NewPointerCache("l1c", 4, 2)
	if _, ok := p.Lookup(9); ok {
		t.Fatal("hit in empty pointer cache")
	}
	p.Update(9, 42)
	ptr, ok := p.Lookup(9)
	if !ok || ptr != 42 {
		t.Fatalf("lookup = %d,%v want 42,true", ptr, ok)
	}
	p.Update(9, 7) // overwrite
	if ptr, _ := p.Lookup(9); ptr != 7 {
		t.Errorf("overwrite failed: %d", ptr)
	}
	if p.HitRate() <= 0 {
		t.Error("hit rate not tracked")
	}
}

func TestPointerCacheEviction(t *testing.T) {
	p := NewPointerCache("l1c", 1, 2)
	p.Update(1, 10)
	p.Update(2, 20)
	p.Lookup(1) // 1 MRU
	ev, evPtr, disp := p.Update(3, 30)
	if !disp || ev != 2 || evPtr != 20 {
		t.Errorf("evicted %d ptr %d (displaced %v), want 2 20 true", ev, evPtr, disp)
	}
	if _, ok := p.Lookup(2); ok {
		t.Error("evicted entry still present")
	}
}

func TestPointerCacheInvalidate(t *testing.T) {
	p := NewPointerCache("l2c", 2, 1)
	p.Update(4, 1)
	if !p.Invalidate(4) {
		t.Fatal("invalidate missed present entry")
	}
	if p.Invalidate(4) {
		t.Fatal("double invalidate succeeded")
	}
	if p.CountValid() != 0 {
		t.Fatal("entries remain after invalidate")
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2)
	e := m.Allocate(0x10, false, 100)
	if e.Addr != 0x10 || e.Write {
		t.Fatal("entry fields wrong")
	}
	if got, ok := m.Lookup(0x10); !ok || got != e {
		t.Fatal("lookup after allocate failed")
	}
	if m.Outstanding() != 1 {
		t.Fatal("outstanding wrong")
	}
	m.Allocate(0x20, true, 101)
	if !m.Full() {
		t.Fatal("MSHR should be full at capacity 2")
	}
	m.Release(0x10)
	if m.Full() || m.Outstanding() != 1 {
		t.Fatal("release did not free capacity")
	}
}

func TestMSHRDone(t *testing.T) {
	e := &MSHREntry{}
	if e.Done() {
		t.Fatal("entry done before data")
	}
	e.DataReceived = true
	if !e.Done() {
		t.Fatal("entry with data and no pending acks should be done")
	}
	e.SharerAcks = 2
	if e.Done() {
		t.Fatal("done with pending sharer acks")
	}
	e.SharerAcks = 0
	e.ProviderAcks = 1
	if e.Done() {
		t.Fatal("done with pending provider acks")
	}
	e.ProviderAcks = 0
	e.HomeAck = 1
	if e.Done() {
		t.Fatal("done with pending home ack")
	}
}

func TestMSHRPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, false, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double allocation did not panic")
			}
		}()
		m.Allocate(1, false, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflow did not panic")
			}
		}()
		m.Allocate(2, false, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release of absent entry did not panic")
			}
		}()
		m.Release(99)
	}()
}

func TestMSHRUnlimited(t *testing.T) {
	m := NewMSHR(0)
	for i := Addr(0); i < 100; i++ {
		m.Allocate(i, false, 0)
	}
	if m.Full() {
		t.Error("unlimited MSHR reported full")
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New("l2", 1024, 8)
	for i := Addr(0); i < 8192; i++ {
		fillBlock(c, i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(Addr(i) % 8192)
	}
}

// BenchmarkCacheMissFill is the miss path: Probe a block that is
// absent from a full set, then Fill the LRU victim. Every way is bound
// before the timer starts, so the loop must not allocate.
func BenchmarkCacheMissFill(b *testing.B) {
	c := New("l2", 1024, 8)
	for i := Addr(0); i < 8192; i++ {
		fillBlock(c, i, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(8192 + i)
		if l, hit, _ := c.Probe(a); !hit {
			c.Fill(l, a, 1)
		}
	}
}

// BenchmarkDirCacheMissFill is BenchmarkCacheMissFill for the directory
// cache, whose victim scans read the dense LRU array.
func BenchmarkDirCacheMissFill(b *testing.B) {
	d := NewDirCache("dir", 1024, 9)
	for i := Addr(0); i < 1024*9; i++ {
		e, _, _, _ := d.Probe(i)
		d.Fill(e, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(1024*9 + i)
		if e, _, hit, _ := d.Probe(a); !hit {
			d.Fill(e, a)
			e.Sharers, e.Owner = 1, -1
		}
	}
}

func BenchmarkPointerCacheUpdate(b *testing.B) {
	p := NewPointerCache("l1c", 512, 4)
	for i := 0; i < b.N; i++ {
		p.Update(Addr(i%4096), int16(i%64))
	}
}

func TestSetIndexShift(t *testing.T) {
	// With a 6-bit shift, addresses that differ only in the low 6 bits
	// (the bank-select bits) must map to the same set, and addresses
	// differing in bit 6 must map to different sets.
	c := New("l2", 4, 1)
	c.SetIndexShift(6)
	base := Addr(0x1000)
	fillBlock(c, base, 1)
	// Same set: fills with a low-bit variant must evict (1-way).
	variant := base | 0x3f
	fillBlock(c, variant, 1)
	if c.Peek(base) != nil {
		t.Error("low-bit variant did not share the set (shift ignored)")
	}
	// Different set: bit 6 set.
	other := base | 0x40
	fillBlock(c, other, 1)
	if c.Peek(variant) == nil {
		t.Error("bit-6 variant evicted the other set's line")
	}
}

func TestPointerCacheSetIndexShift(t *testing.T) {
	p := NewPointerCache("l2c", 2, 1)
	p.SetIndexShift(6)
	p.Update(0x1000, 1)
	if ev, _, disp := p.Update(0x103f, 2); !disp || ev != 0x1000 {
		t.Errorf("same-set update did not displace: %v %v", ev, disp)
	}
}
