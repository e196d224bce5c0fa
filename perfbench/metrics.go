package main

import (
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is an ordered set of named metrics.
type ledger struct {
	names  []string
	values map[string]metric
}

func newLedger() *ledger { return &ledger{values: map[string]metric{}} }

func (l *ledger) set(name, unit string, v float64) {
	if _, ok := l.values[name]; !ok {
		l.names = append(l.names, name)
	}
	l.values[name] = metric{Value: v, Unit: unit}
}

func (l *ledger) print(w io.Writer) {
	for _, n := range l.names {
		m := l.values[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0, so no metric is NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// took is the host time of an interval: wall clock, the process's CPU
// time, and steal, the time a shared host's hypervisor ran other guests
// on this guest's CPUs, per CPU. Steal comes in bursts, so CPU time and
// wall time less steal repeat far better than wall time on such a host.
type took struct{ wall, cpu, steal time.Duration }

func (t took) add(o took) took { return took{t.wall + o.wall, t.cpu + o.cpu, t.steal + o.steal} }

// unstolen is the wall time less steal. Steal is counted in 10ms ticks,
// so a short interval can read more steal than wall time.
func (t took) unstolen() time.Duration { return max(t.wall-t.steal, 0) }

// stopwatch starts timing an interval; calling the result ends it.
func stopwatch() func() took {
	w, c, s := time.Now(), cpuTime(), stealPerCPU()
	return func() took { return took{time.Since(w), cpuTime() - c, stealPerCPU() - s} }
}

// stealPerCPU is the steal time since boot, averaged over the guest's
// CPUs, from /proc/stat; 0 where that is unavailable. Linux reports it
// in USER_HZ ticks, 100 a second.
func stealPerCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total time.Duration
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 9 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] == "cpu":
			ticks, _ := strconv.ParseUint(f[8], 10, 64)
			total = time.Duration(ticks) * 10 * time.Millisecond
		default:
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return total / time.Duration(cpus)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeStats reads the Go runtime's cumulative GC CPU, total and idle
// CPU, and allocated bytes.
type runtimeStats struct{ gcCPU, totalCPU, idleCPU, allocBytes float64 }

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU, a.allocBytes - b.allocBytes}
}

func (a *runtimeStats) add(b runtimeStats) {
	a.gcCPU, a.totalCPU, a.idleCPU, a.allocBytes = a.gcCPU+b.gcCPU, a.totalCPU+b.totalCPU, a.idleCPU+b.idleCPU, a.allocBytes+b.allocBytes
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{v(0), v(1), v(2), v(3)}
}

// heapPeak samples the bytes in live and unswept heap objects every
// 10ms until stop is called, which returns the largest reading. A
// shorter period costs measurable CPU in scheduler wake-ups.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		max := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}
