package cache

import "fmt"

// Every way of a Cache or DirCache is described by one packed probe
// word: the tag — the block address plus one, zero meaning empty — in
// the high tagBits, and the way's pool reference — the position of its
// payload record in the pool, zero meaning unbound — in the low
// refBits. The word holds no pointer, so the per-way arrays are never
// scanned by the garbage collector, and a probe still reads 8 bytes per
// way.
const (
	tagBits = 41
	refBits = 64 - tagBits
	refMask = 1<<refBits - 1

	// AddrLimit bounds the block addresses a Cache or DirCache can hold:
	// AddrLimit-1 plus one still fits in tagBits. Fill panics at or
	// above it.
	AddrLimit Addr = 1 << (tagBits - 1)
)

// tagOf returns the tag field of a probe word for block a.
func tagOf(a Addr) uint64 { return (uint64(a) + 1) << refBits }

// addrError is the panic value of a Fill at or above AddrLimit. The
// message is formatted only if the panic is reported, so the check
// costs Fill a compare and a branch.
type addrError struct {
	name string
	a    Addr
}

func (e addrError) Error() string {
	return fmt.Sprintf("cache %s: block address %#x beyond the %#x tag limit", e.name, e.a, AddrLimit)
}

// checkGeometry panics on a geometry New and NewDirCache reject.
func checkGeometry(name string, numSets, ways int) {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: numSets %d not a power of two", name, numSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	if numSets*ways > refMask {
		panic(fmt.Sprintf("cache %s: %d ways exceed the pool reference limit", name, numSets*ways))
	}
}

// lruWay returns the least recently used of the ways ways of the set
// starting at base.
func lruWay(lru []uint64, base, ways int) int {
	victim, oldest := base, lru[base]
	for w := base + 1; w < base+ways; w++ {
		if s := lru[w]; s < oldest {
			victim, oldest = w, s
		}
	}
	return victim
}

// Pool chunks hold chunkSize records each; a record's position within
// its chunk is the low byte of its pool reference (and of the probe
// word).
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
)

// pool is the payload storage of a set-associative structure: a way
// receives a record the first time it is handed out and keeps it for
// the rest of the run, so storage follows the ways a run uses, not the
// structure's capacity. Records live in fixed-size chunks that are
// never reallocated, so pointers into the pool stay valid while the
// pool grows. The owning structure counts the records it has handed
// out; position 0 is never handed out, so a zero reference can mean
// unbound and a reference indexes the chunks without adjustment.
type pool[T any] []*[chunkSize]T

// claim returns the fresh zero record at position ref, the position
// after the last one handed out, adding a chunk when ref starts one.
func (p *pool[T]) claim(ref uint64) *T {
	if ref>>chunkShift == uint64(len(*p)) {
		*p = append(*p, new([chunkSize]T))
	}
	return &(*p)[ref>>chunkShift][uint8(ref)]
}
