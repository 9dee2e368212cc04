package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gitSHA is stamped by run.sh with -ldflags -X; "unknown" when the
// checkout is not a git repository.
var gitSHA = "unknown"

// kernelNominal is a fixed reference duration for speedKernel, in
// nanoseconds: the kernel takes 0.9 to 2 ms on the reference host, a
// 2-vCPU KVM guest. Host times are scaled by kernelNominal over the
// kernel's measured time, so they read as times on a host where the
// kernel takes 1.6 ms.
const kernelNominal = 1.6e6

var (
	kernelTable = make([]uint64, 1<<16)
	kernelMap   = map[uint64]uint64{}
)

// speedKernel is fixed work that mixes arithmetic, scattered loads and
// stores, and map updates, as the simulator does. Timed beside every
// repetition, it measures how fast the shared host runs at that moment.
func speedKernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<16 - 1)
		kernelTable[j] += x
		if i%8 == 0 {
			kernelMap[j&4095] += kernelTable[(j*7)&(1<<16-1)]
		}
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+sys CPU time over all threads.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set since it started
// (Linux reports KiB).
func maxRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS clears the kernel's high-water mark of the process's
// resident set (Linux 4.0 and later), so that peakRSSMiB reads the peak
// since this call. It reports false where that is not possible.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the resident high-water mark (VmHWM) from
// /proc/self/status; ok is false where it is unavailable.
func peakRSSMiB() (mib float64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err == nil
		}
	}
	return 0, false
}

// cpuTicks reads the aggregate steal and total ticks from /proc/stat;
// ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// hostContext is printed with every run so a noisy wall-clock run can
// be told apart from a slower program.
type hostContext struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	StealShare float64 `json:"steal_share"` // -1 when /proc/stat is unavailable
	Reps       int     `json:"reps"`
	// SpeedIndex is the median speedKernel time over kernelNominal:
	// above 1, the host ran slower than usual. The Raw fields are the
	// unscaled medians of wall_ns_per_ref, cpu_ns_per_ref and setup_s.
	SpeedIndex float64 `json:"speed_index,omitempty"`
	RawWallNS  float64 `json:"raw_wall_ns_per_ref,omitempty"`
	RawCPUNS   float64 `json:"raw_cpu_ns_per_ref,omitempty"`
	RawSetupS  float64 `json:"raw_setup_s,omitempty"`
}

// stealMeter measures the CPU-steal share of the host over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func newHostContext(workload string, seed uint64, trace int) hostContext {
	return hostContext{
		Workload: workload, Seed: seed, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA,
	}
}
