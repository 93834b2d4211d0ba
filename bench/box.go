package main

import (
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"followscent/internal/netbatch"
)

// Box identifies the machine and build a number was measured on, so a
// result is never compared across boxes by accident.
type Box struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Batched    bool   `json:"netbatch_batched"`
	GitCommit  string `json:"git_commit"`
	// Link states what the traffic crossed: this harness never leaves
	// the host.
	Link string `json:"link"`
}

func describeBox() Box {
	b := Box{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Link:       "host loopback interface (127.0.0.1) and in-process zmap.Loopback only; no real link",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(data))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				b.GitCommit = s.Value
			}
		}
	}
	if c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		if nb, err := netbatch.NewConn(c); err == nil {
			b.Batched = nb.Batched()
		}
		c.Close()
	}
	return b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set, in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
