package main

import (
	"context"
	"runtime/pprof"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// span is one timed call into the simulator.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`   // rep, build, warmup, measure or exp.Run
	Workload string `json:"workload"`
	Protocol string `json:"protocol,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
}

// tracer times the benchmark's calls into the simulator. Switched on, it
// also keeps each call as a span, labels the call's CPU samples with
// workload, protocol and phase, and counts misses and messages.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(parent int, name, wl, protocol string) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: wl,
		Protocol: protocol, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// span runs fn inside a span and returns its host time.
func (t *tracer) span(parent int, name, wl, protocol string, fn func()) took {
	id := t.begin(parent, name, wl, protocol)
	stop := stopwatch()
	if t.on {
		pprof.Do(context.Background(), pprof.Labels("workload", wl, "protocol", protocol, "phase", name),
			func(context.Context) { fn() })
	} else {
		fn()
	}
	d := stop()
	t.end(id)
	return d
}

// record keeps a span that started at start and ends now. Unlike begin,
// it may be called from exp.Run's workers: exp serializes the callbacks.
func (t *tracer) record(parent int, name, wl, protocol string, start time.Time) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Workload: wl,
			Protocol: protocol, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: time.Since(t.t0).Nanoseconds()})
	}
}

// label sets the calling goroutine's CPU-sample labels.
func (t *tracer) label(wl, protocol, phase string) {
	if t.on {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("workload", wl, "protocol", protocol, "phase", phase)))
	}
}

// observe attaches a tally to s before it runs (nil when tracing is off).
func (t *tracer) observe(s *core.System) *tally {
	if !t.on {
		return nil
	}
	tl := &tally{}
	s.Ctx.Observer = tl
	s.Net.SetObserver(tl)
	return tl
}

// tally counts, over every phase of one simulation, the references that
// missed in the L1 and the messages the mesh carried. Both hooks are
// observation-only, so the simulation stays bit-identical.
type tally struct{ misses, messages uint64 }

func (tl *tally) Retired(_ topo.Tile, _ cache.Addr, _, hit, _ bool) {
	if !hit {
		tl.misses++
	}
}

func (tl *tally) Message(_, _ topo.Tile, _ int, _, _ sim.Time, _ int) { tl.messages++ }

func (tl *tally) BroadcastDone(_ topo.Tile, _, _ int, _ sim.Time) { tl.messages++ }
