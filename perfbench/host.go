package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdgan/internal/tensor"
)

// hostFacts is stamped on every run so a reader can tell a noisy host
// from a real difference between two commits.
type hostFacts struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	GemmKernel string  `json:"gemm_kernel"`
	DType      string  `json:"dtype"`
	StealShare float64 `json:"steal_share"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GemmKernel: tensor.GemmKernel(),
		DType:      tensor.DTypeName,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks
// and the steal column. Zeros when the file is unavailable.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the host's CPU-steal share over an interval.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Window timings are reported from the better quarter of a run's
// windows (a training repeat, or one second of serving load): the 25th
// percentile of per-window times and the 75th of per-window rates. Host
// noise on a shared machine (CPU steal, a busy neighbour on the same
// core) only ever adds time and comes in regimes of seconds that slow
// whole windows; a change that slows every window still moves the
// figure in full.
func bestTime(vals []float64) float64 { return quantile(vals, 0.25) }

func bestRate(vals []float64) float64 { return quantile(vals, 0.75) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
