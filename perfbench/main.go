// Command perfbench measures how fast the simulator runs the paper's
// protocol matrix: four coherence protocols on consolidated workloads of
// the 64-tile chip. It drives the simulator only through its public
// functions, checks every timed simulation against an untimed checked
// run, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end host-time metrics; with
// --trace 1 they are the per-layer ledger of a separate traced run.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the result file, profile and spans
}

// bench is one invocation: a workload's cells, their checked runs, and
// the tally of operations (simulations) attempted and failed.
type bench struct {
	sp        spec
	opt       options
	tr        *tracer
	cfgs      []core.Config
	checked   []checkedRun
	checkErrs []error // per cell, nil when its checked run passed
	attempted int
	failures  []string
}

// result is what an invocation reports and saves.
type result struct {
	Provenance provenance           `json:"provenance"`
	Digest     string               `json:"model_digest"`
	Reps       int                  `json:"timed_reps"`
	PerRep     map[string][]float64 `json:"per_rep,omitempty"` // end-to-end values of each passing repetition
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
	Profiles   []string             `json:"profiles,omitempty"`
	Spans      string               `json:"spans,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: apache, radix, jbb or sweep")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "host seconds of timed repetitions")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer ledger of a traced run; 0 the end-to-end metrics")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "results"), "directory for the result file, profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specNamed(opt.workload)
	if err != nil || (trace != 0 && trace != 1) || opt.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload apache|radix|jbb|sweep, --trace 0|1 and --seconds >= 0\n")
		return 2
	}
	opt.trace = trace == 1
	res, l, err := measure(sp, opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	p := res.Provenance
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v refs/core=%d warmup/core=%d\n",
		sp.name, p.Seed, p.Seconds, p.Trace, p.RefsPerCore, p.WarmupRefs)
	fmt.Fprintf(stdout, "code exe_sha256=%s git=%s dirty=%s go=%s\n", p.ExeSHA256, p.GitHead, p.GitDirty, p.GoVersion)
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d goarch=%s cpu=%q\n", p.NumCPU, p.GOMAXPROCS, p.GOARCH, p.CPUModel)
	fmt.Fprintf(stdout, "model digest %s\n", res.Digest)
	fmt.Fprintf(stdout, "operations attempted=%d failed=%d timed_reps=%d\n", res.Attempted, res.Failed, res.Reps)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
		fmt.Fprintf(stderr, "perfbench: seed %d: FAILED %s\n", p.Seed, f)
	}
	l.print(stdout)
	if err := save(opt, &res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results %s\n", filepath.Join(opt.out, stem(opt)+".json"))
	last, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// stem names an invocation's output files.
func stem(opt options) string {
	trace := 0
	if opt.trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, trace)
}

// measure runs the timed repetitions (or, traced, the ledger's runs),
// then the checked runs, and verifies every timed simulation against
// its checked run.
func measure(sp spec, opt options) (result, *ledger, error) {
	b := &bench{sp: sp, opt: opt, tr: newTracer(), cfgs: sp.cells(opt.seed)}
	prov := hostProvenance()
	prov.Workload, prov.Seed, prov.Seconds, prov.Trace = sp.name, opt.seed, opt.seconds, opt.trace
	prov.RefsPerCore, prov.WarmupRefs = sp.refs, sp.warmup
	res := result{Provenance: prov}
	budget := time.Duration(opt.seconds * float64(time.Second))

	var reps []repRun
	var lr *ledgerRuns
	if opt.trace {
		var err error
		if lr, err = b.ledgerRuns(budget); err != nil {
			return res, nil, err
		}
		res.Reps = len(lr.untraced) + len(lr.traced)
		res.Profiles, res.Spans = lr.profiles, lr.spans
	} else {
		res.Reps = timed(budget, 1, func(int) { reps = append(reps, b.rep(b.cfgs)) })
	}
	// Read before the checked runs, whose shadow state is larger.
	rss := maxRSSMB()

	checked, errs := checkedRuns(b.cfgs, runtime.NumCPU())
	b.checked, b.checkErrs = checked, errs
	fps := make([]fingerprint, len(checked))
	for i, err := range errs {
		b.attempted++
		if err != nil {
			b.fail(i, "checked run: "+err.Error())
		}
		fps[i] = checked[i].fp
	}
	res.Digest = modelDigest(fps)

	var l *ledger
	if opt.trace {
		b.verify(lr.untraced)
		b.verify(lr.traced)
		var err error
		if l, err = b.ledger(lr); err != nil {
			return res, nil, err
		}
	} else {
		b.verify(reps)
		l, res.PerRep = b.endToEnd(reps, rss)
	}
	res.Attempted, res.Failed, res.Failures = b.attempted, len(b.failures), b.failures
	res.Metrics = l.values
	return res, l, nil
}

func (b *bench) fail(cell int, why string) {
	cfg := b.cfgs[cell]
	b.failures = append(b.failures, fmt.Sprintf("%s/%s: %s", cfg.Workload, cfg.Protocol, why))
}

// timed calls rep until another call would overrun the budget, and at
// least minReps times. It returns the number of calls.
func timed(budget time.Duration, minReps int, rep func(i int)) int {
	start := time.Now()
	for n := 1; ; n++ {
		rep(n - 1)
		el := time.Since(start)
		if n >= minReps && el+el/time.Duration(n) > budget {
			return n
		}
	}
}

// verify checks each simulation of reps against its checked run and
// marks the repetitions whose simulations all passed.
func (b *bench) verify(reps []repRun) {
	for r := range reps {
		reps[r].ok = true
		for i, c := range reps[r].cells {
			b.attempted++
			if why := verify(b.cfgs[i], c, b.checked[i].fp, b.checkErrs[i]); why != "" {
				b.fail(i, why)
				reps[r].ok = false
			}
		}
	}
}

// okReps keeps the repetitions whose simulations all passed.
func okReps(reps []repRun) []repRun {
	var ok []repRun
	for _, r := range reps {
		if r.ok {
			ok = append(ok, r)
		}
	}
	return ok
}

// endToEnd reports each host-time metric's median over the repetitions.
// Rates and set-up are in CPU time, except sweep's set-up, where the
// workers share the CPU time; it and wall_s are wall time less steal.
func (b *bench) endToEnd(reps []repRun, rssMB float64) (*ledger, map[string][]float64) {
	var rate, wall, setup []float64
	for _, r := range okReps(reps) {
		var refs uint64
		var measured, set took
		for i, c := range r.cells {
			set = set.add(c.build).add(c.warmup)
			measured = measured.add(c.measure)
			if b.sp.sweep {
				refs += allRefs(b.cfgs[i], c.res)
			} else {
				refs += c.res.Refs
			}
		}
		if b.sp.sweep {
			measured, set.cpu = r.took, set.unstolen()
		}
		rate = append(rate, ratio(float64(refs), measured.cpu.Seconds()))
		wall = append(wall, r.took.unstolen().Seconds())
		setup = append(setup, set.cpu.Seconds())
	}
	l := newLedger()
	l.set("refs_per_s", "1/s", median(rate))
	l.set("wall_s", "s", median(wall))
	l.set("setup_s", "s", median(setup))
	l.set("max_rss_mb", "MB", rssMB)
	return l, map[string][]float64{"refs_per_s": rate, "wall_s": wall, "setup_s": setup}
}

// save writes the result file beside the profile and spans.
func save(opt options, res *result) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(opt.out, stem(opt)+".json"), res)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
