package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of this process's resource use.
type procSample struct {
	wall      time.Time
	host      int64         // hostNow
	cpu       time.Duration // user + system
	allocB    uint64        // cumulative Go heap bytes allocated
	gcCPU     float64       // cumulative GC CPU-seconds (runtime estimate)
	totalCPU  float64       // cumulative CPU-seconds (runtime estimate)
	gcCycles  uint64
	maxRSSKiB int64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(runtimeMetrics))
	copy(ms, runtimeMetrics)
	metrics.Read(ms)
	return procSample{
		wall:      time.Now(),
		host:      hostNow(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:    ms[0].Value.Uint64(),
		gcCPU:     ms[1].Value.Float64(),
		totalCPU:  ms[2].Value.Float64(),
		gcCycles:  ms[3].Value.Uint64(),
		maxRSSKiB: peakRSSKiB(ru.Maxrss),
	}
}

// hostNow is the clock of every time the benchmark reports: Unix wall
// time in ns minus the CPU time the hypervisor has stolen from this
// machine so far, averaged over its CPUs (the steal column of
// /proc/stat). On a shared virtual machine, bursts of steal slow every
// timed run by up to half for minutes at a time while the program's own
// work is unchanged; intervals on this clock leave them out. The
// benchmark and its child processes read the same counter, so their
// readings compare. Where /proc/stat cannot be read it is the wall clock.
func hostNow() int64 {
	return time.Now().UnixNano() - stolenNs()
}

// userHz is the unit of /proc/stat's times, fixed at 100 per second in
// the kernel's interface to user space.
const userHz = 100

// stolenNs is the machine's steal time so far per CPU, in ns.
func stolenNs() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return stealPerCPU(string(raw))
}

// stealPerCPU reads the steal time per CPU, in ns, from the text of
// /proc/stat: the aggregate "cpu" line's eighth value over the number of
// "cpuN" lines.
func stealPerCPU(stat string) int64 {
	var steal, cpus int64
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseInt(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return steal * (1e9 / userHz) / cpus
}

// peakRSSKiB is the high-water resident set of this process's own address
// space (VmHWM). getrusage's maxrss, the fallback where VmHWM cannot be
// read, also counts the parent's resident set at the time of exec, which
// would make a job's figure depend on the size of the process that
// started it.
func peakRSSKiB(fallback int64) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return fallback
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return fallback
}

// procDelta is the resource use between two samples, plus the peak
// resident set of the whole process so far.
type procDelta struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	GCCycles  float64 `json:"gc_cycles"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func (b procSample) since(a procSample) procDelta {
	return procDelta{
		WallS:     float64(b.host-a.host) / 1e9,
		CPUS:      (b.cpu - a.cpu).Seconds(),
		AllocMB:   float64(b.allocB-a.allocB) / (1 << 20),
		GCCPUFrac: ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		GCCycles:  float64(b.gcCycles - a.gcCycles),
		PeakRSSMB: float64(b.maxRSSKiB) / 1024,
	}
}

// add combines the deltas of two disjoint intervals of one process.
func (a procDelta) add(b procDelta) procDelta {
	return procDelta{
		WallS:     a.WallS + b.WallS,
		CPUS:      a.CPUS + b.CPUS,
		AllocMB:   a.AllocMB + b.AllocMB,
		GCCPUFrac: ratio(a.GCCPUFrac*a.CPUS+b.GCCPUFrac*b.CPUS, a.CPUS+b.CPUS),
		GCCycles:  a.GCCycles + b.GCCycles,
		PeakRSSMB: max(a.PeakRSSMB, b.PeakRSSMB),
	}
}
