// Package obs is the simulator's observability layer: a versioned,
// machine-readable description of what a run (or a whole evaluation
// matrix) computed.
//
// The paper's evaluation is a pipeline from raw event counters to
// normalized cross-protocol figures; obs makes every stage of that
// pipeline inspectable after the fact. A Manifest (schema v1) records
// the full core.Config, the code identity of the binary (Revision),
// every counter, the network activity, the per-class miss profile, the
// energy breakdown and — when profiling was enabled — the kernel dispatch
// statistics, queue-depth and miss-latency histograms, and per-phase
// timers. The encoder and decoder round-trip exactly: a decoded run
// reproduces bit-identical counters, energies and derived figures, so
// cmd/tables can regenerate any figure from a saved JSON file with
// zero re-simulation.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

// Revision returns the identity of the running code, the one key that
// manifests, the run cache and cmd/bench attribute results to:
// "exe-<sha256 prefix of the executable>", preceded by
// "<git revision>[-dirty]+" when the toolchain stamped VCS data into
// the build. The executable hash changes with every rebuild that
// changes the code, including `go run` builds and builds from a
// modified tree, which carry no (or no precise) VCS revision. It is
// computed once per process.
func Revision() string {
	revisionOnce.Do(func() {
		exe, err := os.Executable()
		if err != nil {
			revision = vcsPrefix() + "exe-unknown"
			return
		}
		revision = vcsPrefix() + exeRevision(exe)
	})
	return revision
}

var (
	revisionOnce sync.Once
	revision     string
)

// exeRevision hashes the file at path: "exe-" plus the first 16 hex
// digits of its sha256, or "exe-unknown" if it cannot be read.
func exeRevision(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "exe-unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "exe-unknown"
	}
	return "exe-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// vcsPrefix returns "<git revision>[-dirty]+" from the build info, or
// "" when the build carries none (go run, test binaries).
func vcsPrefix() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev + "+"
}

// goVersion is split out so the manifest header stays testable.
func goVersion() string { return runtime.Version() }
