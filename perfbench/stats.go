package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartilesExclusive mirrors Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method, so spreads computed here match the ones a
// Python reader computes from the same values.
func quartilesExclusive(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// summary is one metric's in-run distribution: the reported value plus the
// median and quartiles of the samples it came from.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// metrics collects named values.
type metrics struct {
	vals map[string]summary
}

func newMetrics() *metrics { return &metrics{vals: map[string]summary{}} }

// set records a single measured value.
func (m *metrics) set(name, unit string, v float64) {
	m.put(name, summary{Value: v, Unit: unit, N: 1, Median: v, Q1: v, Q3: v})
}

// median records the median of samples, keeping their quartiles.
func (m *metrics) median(name, unit string, samples []float64) {
	m.put(name, distribution(unit, samples, 0.5))
}

// percentile records the q-quantile of samples, keeping their quartiles.
func (m *metrics) percentile(name, unit string, samples []float64, q float64) {
	m.put(name, distribution(unit, samples, q))
}

func distribution(unit string, samples []float64, q float64) summary {
	return summary{
		Value: quantile(samples, q), Unit: unit, N: len(samples),
		Median: quantile(samples, 0.5), Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75),
	}
}

// put records s unless its value is not a number or infinite (as from no
// samples, or a ratio of nothing): such a metric counts as not measured.
func (m *metrics) put(name string, s summary) {
	if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
		return
	}
	m.vals[name] = s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMB reads the process high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// hostInfo is recorded with every result file so a number can be
// reproduced on comparable hardware.
type hostInfo struct {
	Nproc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	PhysicalCores int    `json:"physical_cores"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
}

func host(root string) hostInfo {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
	}
	h.PhysicalCores, h.CPUModel = cpuinfo()
	return h
}

// cpuinfo counts distinct (physical id, core id) pairs in /proc/cpuinfo.
// Where the kernel does not report them, each logical CPU counts as a core.
func cpuinfo() (cores int, model string) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0, "unknown"
	}
	seen := map[string]bool{}
	logical := 0
	phys, core := "", ""
	for _, line := range strings.Split(string(raw)+"\n", "\n") {
		k, v, ok := strings.Cut(line, ":")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case !ok && strings.TrimSpace(line) == "":
			if phys != "" || core != "" {
				seen[phys+"/"+core] = true
			}
			phys, core = "", ""
		case k == "processor":
			logical++
		case k == "physical id":
			phys = v
		case k == "core id":
			core = v
		case k == "model name" && model == "":
			model = v
		}
	}
	cores = len(seen)
	if cores == 0 {
		cores = logical
	}
	if model == "" {
		model = "unknown"
	}
	return cores, model
}

// commit reads the checked-out commit from .git when the checkout is a git
// repository, else reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// setupTimes collects a workload's set-ups, timed by wall clock and by
// process CPU time.
type setupTimes struct{ wall, cpu []float64 }

// start collects the previous set-ups' garbage, so that none of it is
// collected inside this one, and starts timing; the returned func stops it.
func (t *setupTimes) start() (stop func()) {
	runtime.GC()
	w0, c0 := time.Now(), cpuTime()
	return func() {
		t.add(time.Since(w0), cpuTime().sub(c0).total())
	}
}

func (t *setupTimes) add(wall, cpu time.Duration) {
	t.wall = append(t.wall, wall.Seconds())
	t.cpu = append(t.cpu, cpu.Seconds())
}

// record reports the median set-up.
func (t *setupTimes) record(m *metrics) {
	m.median("setup_s", "s", t.cpu)
	m.median("setup_wall_s", "s", t.wall)
}

// cpuClock is CPU time this process has used, all threads, split into user
// and system (kernel) time. Unlike wall time it does not grow while the
// host runs others.
type cpuClock struct{ user, sys time.Duration }

func cpuTime() cpuClock {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuClock{}
	}
	return cpuClock{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

func (c cpuClock) sub(d cpuClock) cpuClock { return cpuClock{c.user - d.user, c.sys - d.sys} }

func (c cpuClock) total() time.Duration { return c.user + c.sys }

// hostCPU reads the host's cumulative steal and total CPU ticks from
// /proc/stat: steal is time a virtual CPU was ready but the hypervisor ran
// another guest.
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
