package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// hostSample is what the drift record diffs across the timed phase.
type hostSample struct {
	wall       time.Time
	steal, all uint64        // /proc/stat aggregate cpu ticks
	cpu        time.Duration // process user + system time
	rt         []metrics.Sample
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleHost() hostSample {
	s := hostSample{wall: time.Now()}
	s.steal, s.all = procStat()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

// procStat returns the steal ticks and all ticks of the aggregate cpu
// line of /proc/stat (zeros where it is unreadable).
func procStat() (steal, all uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal: guest time is
	// already inside user.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		all += v
		if i == 8 {
			steal = v
		}
	}
	return steal, all
}

// hostDelta is the drift and runtime record of one timed phase.
type hostDelta struct {
	StealPct     float64 `json:"steal_pct"`
	StealTicks   uint64  `json:"steal_ticks"`
	CPUUtil      float64 `json:"cpu_util"`
	SchedP99us   float64 `json:"sched_latency_p99_us"`
	GCPauseP99us float64 `json:"gc_pause_p99_us"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`
	WallS        float64 `json:"wall_s"`
}

func diffHost(a, b hostSample, procs int) hostDelta {
	var d hostDelta
	d.WallS = b.wall.Sub(a.wall).Seconds()
	if b.all > a.all {
		d.StealTicks = b.steal - a.steal
		d.StealPct = 100 * float64(b.steal-a.steal) / float64(b.all-a.all)
	}
	if d.WallS > 0 {
		d.CPUUtil = (b.cpu - a.cpu).Seconds() / (d.WallS * float64(procs))
	}
	d.SchedP99us = 1e6 * histP99(a.rt[0], b.rt[0])
	d.GCPauseP99us = 1e6 * histP99(a.rt[1], b.rt[1])
	if tot := f64(b.rt[3]) - f64(a.rt[3]); tot > 0 {
		d.GCCPUFrac = (f64(b.rt[2]) - f64(a.rt[2])) / tot
	}
	return d
}

func f64(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// histP99 returns the 99th percentile of the samples a runtime/metrics
// histogram gained between a and b: the upper edge of the bucket that
// holds it (the lower edge for the open last bucket).
func histP99(a, b metrics.Sample) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	if len(ha.Counts) != len(hb.Counts) {
		return 0
	}
	var total uint64
	for i := range hb.Counts {
		total += hb.Counts[i] - ha.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i := range hb.Counts {
		cum += hb.Counts[i] - ha.Counts[i]
		if cum >= want {
			if hi := hb.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return hb.Buckets[i]
		}
	}
	return 0
}

// resetPeakRSS restarts the VmHWM count at the current resident set, so
// the peak covers the timed phase and not the repeated set-ups. Where
// the kernel refuses, the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// calibSink keeps the calibration kernel's result observable.
var calibSink uint64

// calibrate times a fixed integer kernel that no repository code runs,
// five times, and returns the median in milliseconds: a drift gauge for
// the host, never for the program.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

// hostLayers adds the host drift gauges every traced run reports.
func hostLayers(r *result, calib float64, d hostDelta) {
	r.layer["host.steal_pct"] = metric{d.StealPct, "%"}
	r.layer["host.calib_ms"] = metric{calib, "ms"}
}

// envRecord is the environment line of every report.
type envRecord struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	CalibMs    float64 `json:"calib_ms"`
	hostDelta
}

func envLine(calib float64, d hostDelta) string {
	e := envRecord{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GitSHA:     gitSHA(),
		CalibMs:    calib,
		hostDelta:  d,
	}
	b, _ := json.Marshal(e) // plain struct of numbers and strings: cannot fail
	return "env " + string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the measured commit when the working directory is the
// top of a git checkout, and "none" otherwise; git does not search the
// directories above it.
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
