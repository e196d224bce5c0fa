// Racy-workload stress fuzzing of the four coherence engines: high-
// conflict streams run under the shadow-memory checker with the
// stalled-transaction watchdog armed (external test package so it can
// use the internal/check harness without an import cycle).
package proto_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/check"
)

var stressProtocols = []string{"directory", "dico", "providers", "arin"}

// stressSeeds returns how many seeds to sweep: 12 by default, more
// when STRESS_SEEDS is set (long local bug hunts).
func stressSeeds() int {
	if s := os.Getenv("STRESS_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 12
}

// TestStress sweeps seeded high-conflict streams over all four
// protocols concurrently, with the checker attached and the watchdog
// armed. Stream shape varies with the seed so the sweep covers
// single-block hammering through eviction-heavy working sets.
func TestStress(t *testing.T) {
	seeds := stressSeeds()
	for seed := 1; seed <= seeds; seed++ {
		blocks := []int{1, 2, 4, 8, 16, 48}[seed%6]
		writePct := []int{40, 60, 75}[seed%3]
		recs := check.ConflictStream(uint64(seed), 16, blocks, 700, writePct)
		for _, p := range stressProtocols {
			name := fmt.Sprintf("s%d-b%d-w%d/%s", seed, blocks, writePct, p)
			if _, err := check.RunRecord(p, recs, 16, 4, uint64(seed), false); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// FuzzStress lets the fuzzer mutate the raw reference stream. Every
// byte pair decodes to one reference; all four protocols must run the
// stream without checker, watchdog, deadlock or invariant errors.
func FuzzStress(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 0x01, 0x01, 0x82, 0x41, 0x03, 0x01})
	for seed := uint64(1); seed <= 4; seed++ {
		recs := check.ConflictStream(seed, 16, 4, 64, 60)
		data := make([]byte, 0, 2*len(recs))
		for _, r := range recs {
			b0 := byte(r.Tile) & 0x3f
			if r.Write {
				b0 |= 0x80
			}
			data = append(data, b0, byte(r.Addr)&0x3f|byte(r.Gap)<<6)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // bound per-input cost
		}
		recs := check.DecodeStream(data, 16, 48)
		if len(recs) == 0 {
			return
		}
		for _, p := range stressProtocols {
			if _, err := check.RunRecord(p, recs, 16, 4, 7, false); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		}
	})
}
