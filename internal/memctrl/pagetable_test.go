package memctrl

import (
	"testing"

	"repro/internal/sim"
)

// pair is one (vm, vpage, class) the differential test can issue.
type pair struct {
	vm    int
	vpage uint64
	class PageClass
}

// testPairs lays out the generator's three page classes for four VMs,
// plus two edge cases: a vpage mapped both privately and as
// deduplicated content by VM 0, and keys that alias under the removed
// translation cache's hash.
func testPairs() []pair {
	const keyA, keyB = 0xA11CE, 0xB0B
	var ps []pair
	for vm := 0; vm < 4; vm++ {
		for th := uint64(0); th < 3; th++ {
			for pg := uint64(0); pg < 5; pg++ {
				ps = append(ps, pair{vm, 1<<57 | th<<32 | pg, PagePrivate})
			}
		}
		for pg := uint64(0); pg < 6; pg++ {
			ps = append(ps, pair{vm, 1<<56 | pg, PageVMShared})
		}
		content := uint64(keyA)
		if vm == 3 {
			content = keyB
		}
		for pg := uint64(0); pg < 8; pg++ {
			ps = append(ps, pair{vm, content<<20 | pg, PageDedup})
		}
	}
	ps = append(ps, pair{0, keyA << 20, PagePrivate})
	for _, vm := range []int{1, 2} {
		ps = append(ps, pair{vm, 0x777 ^ uint64(vm)<<59, PageDedup})
	}
	return ps
}

// checkAgainstRef compares every counter and the allocation cursors.
func checkAgainstRef(t *testing.T, step int, m *Mapper, ref *refMapper) {
	t.Helper()
	got := [6]uint64{m.PrivatePages, m.SharedPages, m.DedupRefs, m.CoWBreaks, m.nextPhys, m.cowNext}
	want := [6]uint64{ref.PrivatePages, ref.SharedPages, ref.DedupRefs, ref.CoWBreaks, ref.nextPhys, ref.cowNext}
	if got != want {
		t.Fatalf("step %d: private/shared/dedupRefs/cowBreaks/frames/cowFrames = %v, reference %v", step, got, want)
	}
}

// TestMapperMatchesReference drives the dense page table and the map
// and TLB reference model with the same seeded operation sequences and
// checks every returned frame, cow flag and counter. The sequences cover
// all three page classes, dedup on and off, pairs established up front
// (as the generator does) or on first touch, CoW delays changing as the
// clock advances, and second writers inside a visibility window, some
// with a shorter delay so they pull visibility forward.
func TestMapperMatchesReference(t *testing.T) {
	pairs := testPairs()
	delays := []sim.Time{0, 1, 5, 20}
	// Half the operations go to one deduplicated pair, changed every 30
	// operations, so a break, second writes under a changed delay and
	// reads often meet inside one window.
	var dedupPairs []int
	for i, p := range pairs {
		if p.class == PageDedup {
			dedupPairs = append(dedupPairs, i)
		}
	}
	for seed := uint64(1); seed <= 30; seed++ {
		for _, dedup := range []bool{true, false} {
			for _, upfront := range []bool{true, false} {
				rng := sim.NewRand(seed)
				m, ref := NewMapper(dedup), newRefMapper(dedup)
				handles := make([]Page, len(pairs))
				if upfront {
					for i, p := range pairs {
						handles[i] = m.Establish(p.vm, p.vpage, p.class)
						ref.Translate(p.vm, p.vpage, p.class, false)
					}
					checkAgainstRef(t, -1, m, ref)
				}
				now := sim.Time(0)
				focus := 0
				for step := 0; step < 3000; step++ {
					if step%30 == 0 {
						focus = dedupPairs[rng.Intn(len(dedupPairs))]
					}
					if rng.Intn(10) == 0 {
						d := delays[rng.Intn(len(delays))]
						m.SetCoWDelay(d)
						ref.SetCoWDelay(d)
					}
					now += sim.Time(rng.Intn(3))
					i := rng.Intn(len(pairs))
					if rng.Intn(2) == 0 {
						i = focus
					}
					p := pairs[i]
					write := rng.Intn(4) == 0
					h := m.Establish(p.vm, p.vpage, p.class)
					if upfront && h != handles[i] {
						t.Fatalf("seed %d step %d: re-establishing %+v gave handle %d, first %d", seed, step, p, h, handles[i])
					}
					gotPhys, gotCoW := m.TranslatePage(h, write, now)
					wantPhys, wantCoW := ref.TranslateAt(p.vm, p.vpage, p.class, write, now)
					if gotPhys != wantPhys || gotCoW != wantCoW {
						t.Fatalf("seed %d dedup=%v upfront=%v step %d: %+v write=%v at %d -> (%d, %v), reference (%d, %v)",
							seed, dedup, upfront, step, p, write, now, gotPhys, gotCoW, wantPhys, wantCoW)
					}
					checkAgainstRef(t, step, m, ref)
				}
				if dedup && ref.CoWBreaks == 0 {
					t.Fatalf("seed %d: no copy-on-write break exercised", seed)
				}
			}
		}
	}
}

// cowSetup maps content page 7 into vms VMs with the given CoW delay
// and returns the mapper, the handles and the shared frame.
func cowSetup(t *testing.T, vms int, delay sim.Time) (*Mapper, []Page, uint64) {
	t.Helper()
	m := NewMapper(true)
	m.SetCoWDelay(delay)
	pages := make([]Page, vms)
	for vm := range pages {
		pages[vm] = m.Establish(vm, 7, PageDedup)
	}
	shared, _ := m.TranslatePage(pages[0], false, 0)
	return m, pages, shared
}

// TestCoWVisibilityWindow: after VM 1 breaks a deduplicated page at
// cycle t with delay d, its own reads see the shared frame before t+d
// and the copy from t+d on; the writer gets the copy at once; the other
// VMs keep the shared frame throughout.
func TestCoWVisibilityWindow(t *testing.T) {
	const t0, d = 100, 10
	m, pages, shared := cowSetup(t, 3, d)
	copyFrame, cow := m.TranslatePage(pages[1], true, t0)
	if !cow || copyFrame == shared {
		t.Fatalf("break: frame %d cow=%v, shared frame %d", copyFrame, cow, shared)
	}
	if m.CoWBreaks != 1 {
		t.Fatalf("CoWBreaks = %d, want 1", m.CoWBreaks)
	}
	for now := sim.Time(t0); now < t0+2*d; now++ {
		want := shared
		if now >= t0+d {
			want = copyFrame
		}
		if got, cow := m.TranslatePage(pages[1], false, now); got != want || cow {
			t.Errorf("VM 1 read at %d: frame %d cow=%v, want %d", now, got, cow, want)
		}
		for _, vm := range []int{0, 2} {
			if got, _ := m.TranslatePage(pages[vm], false, now); got != shared {
				t.Errorf("VM %d read at %d: frame %d, want the shared frame %d", vm, now, got, shared)
			}
		}
	}
}

// TestCoWSecondWriterInWindow: a second write to a pending break gets
// the copy without counting a second break. A later write leaves the
// visibility time alone; one whose visibility falls earlier (a writer
// whose clock lags the first) pulls it forward.
func TestCoWSecondWriterInWindow(t *testing.T) {
	const t0, d = 100, 10
	m, pages, shared := cowSetup(t, 2, d)
	copyFrame, _ := m.TranslatePage(pages[1], true, t0)
	if got, cow := m.TranslatePage(pages[1], true, t0+5); got != copyFrame || cow {
		t.Fatalf("later second write: frame %d cow=%v, want %d without a break", got, cow, copyFrame)
	}
	if got, _ := m.TranslatePage(pages[1], false, t0+d-1); got != shared {
		t.Fatalf("later second write moved visibility: read at %d saw %d", t0+d-1, got)
	}
	const early = t0 - 4 // visible at early+d, before t0+d
	if got, cow := m.TranslatePage(pages[1], true, early); got != copyFrame || cow {
		t.Fatalf("earlier second write: frame %d cow=%v, want %d without a break", got, cow, copyFrame)
	}
	if got, _ := m.TranslatePage(pages[1], false, early+d-1); got != shared {
		t.Errorf("read at %d saw %d before the pulled-forward visibility", early+d-1, got)
	}
	if got, _ := m.TranslatePage(pages[1], false, early+d); got != copyFrame {
		t.Errorf("read at %d saw %d, want the copy %d", early+d, got, copyFrame)
	}
	if got, _ := m.TranslatePage(pages[0], false, t0+2*d); got != shared {
		t.Errorf("VM 0 read saw %d, want the shared frame %d", got, shared)
	}
	if m.CoWBreaks != 1 {
		t.Errorf("CoWBreaks = %d, want 1", m.CoWBreaks)
	}
}

var sinkFrame uint64

// BenchmarkTranslatePage times the per-reference translation of an
// established page: mostly reads, with rare copy-on-write breaks.
func BenchmarkTranslatePage(b *testing.B) {
	m := NewMapper(true)
	m.SetCoWDelay(1)
	pairs := testPairs()
	handles := make([]Page, len(pairs))
	for i, p := range pairs {
		handles[i] = m.Establish(p.vm, p.vpage, p.class)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFrame, _ = m.TranslatePage(handles[i%len(handles)], i%509 == 0, sim.Time(i>>6))
	}
}
