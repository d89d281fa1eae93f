package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// hostLines is the provenance block every run prints: a number without
// the machine and build that produced it cannot be compared with the next.
func hostLines(seed int64) []string {
	return []string{
		fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("host build=%q", buildinfo.String()),
		fmt.Sprintf("host date=%s seed=%d loadavg1=%s", time.Now().UTC().Format(time.RFC3339), seed, loadText()),
	}
}

// loadAvg1 reads the 1-minute load average; ok is false where the host
// does not expose one.
func loadAvg1() (float64, bool) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return v, err == nil
}

func loadText() string {
	if v, ok := loadAvg1(); ok {
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
	return "unknown"
}

// warnIfLoaded says so on standard error when something else is already
// using the machine: every time in the run is then suspect.
func warnIfLoaded() {
	if v, ok := loadAvg1(); ok && v > 0.5*float64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average %.2f exceeds half of %d CPUs; timings will be noisy\n", v, runtime.NumCPU())
	}
}

// timeSetups runs a workload's set-up repeatedly and returns each
// duration in seconds; setup_s is their median. A set-up that takes a
// fraction of a millisecond is repeated up to maxSetupReps times within
// setupBudget, because so short a time is steady only as the median of
// many. With collect set (a set-up that builds megabytes: an rt-* arena)
// the heap is collected before each repetition after the first, so that
// they reuse memory the process already owns and the median does not
// depend on when the Go collector happened to run. setUp may return a function
// that discards what it built; it is called, untimed, before the next
// repetition, and never for the last, which the workload then uses. The
// repetitions' garbage is handed back to the OS at the end: it is the
// benchmark's, not the workload's, and must not count towards
// peak_mem_mb.
func timeSetups(collect bool, setUp func() (discard func(), err error)) ([]float64, error) {
	var out []float64
	var discard func()
	for start := time.Now(); len(out) < minSetupReps || (len(out) < maxSetupReps && time.Since(start) < setupBudget); {
		if discard != nil {
			discard()
		}
		if collect && len(out) > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if discard, err = setUp(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	debug.FreeOSMemory()
	return out, nil
}

const (
	minSetupReps = 9
	maxSetupReps = 101
	setupBudget  = 500 * time.Millisecond
)

// memSampler tracks the process's peak footprint at 10 Hz from
// runtime/metrics — mapped memory minus what was returned to the OS —
// without the stop-the-world of runtime.ReadMemStats in the timed path.
type memSampler struct {
	samples [2]metrics.Sample
	peak    uint64 // the sampling goroutine's until done is closed
	stop    chan struct{}
	done    chan struct{}
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.samples[0].Name = "/memory/classes/total:bytes"
	s.samples[1].Name = "/memory/classes/heap/released:bytes"
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	metrics.Read(s.samples[:])
	if v := s.samples[0].Value.Uint64() - s.samples[1].Value.Uint64(); v > s.peak {
		s.peak = v
	}
}

// peakMiB stops the sampler, takes a last sample, and returns the peak.
func (s *memSampler) peakMiB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / (1 << 20)
}

// allocCounters reads the cumulative heap allocation counters.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
