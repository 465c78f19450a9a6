package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adrdedup"
	"adrdedup/internal/cluster"
)

// probe measures one phase of a run from outside the program: resident
// memory and live heap sampled every 10 ms, runtime and CPU deltas, and
// the engine's counter deltas.
type probe struct {
	det   *adrdedup.Detector
	start time.Time
	mem0  runtime.MemStats
	cpu0  time.Duration
	host0 hostTicks
	cl0   cluster.MetricsSnapshot

	stop              chan struct{}
	wg                sync.WaitGroup
	peakRSS, peakHeap uint64
}

// phase is what a probe measured.
type phase struct {
	wall time.Duration
	cpu  time.Duration
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the phase; 0 where the kernel does not say.
	steal             float64
	peakRSS, peakHeap uint64
	allocBytes        uint64
	gcCycles          uint32
	gcPause           time.Duration
	cluster           cluster.MetricsSnapshot
}

func startProbe(det *adrdedup.Detector) *probe {
	p := &probe{det: det, stop: make(chan struct{}), cl0: det.Metrics()}
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = processCPU()
	p.host0 = readHostTicks()
	p.start = time.Now()
	p.wg.Add(1)
	go p.sample()
	return p
}

func (p *probe) sample() {
	defer p.wg.Done()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		p.peakRSS = max(p.peakRSS, residentBytes())
		metrics.Read(heap)
		p.peakHeap = max(p.peakHeap, heap[0].Value.Uint64())
		select {
		case <-tick.C:
		case <-p.stop:
			return
		}
	}
}

// finish stops sampling and returns the phase's deltas.
func (p *probe) finish() phase {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu0
	host1 := readHostTicks()
	close(p.stop)
	p.wg.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c0, c1 := p.cl0, p.det.Metrics()
	return phase{
		wall:       wall,
		cpu:        cpu,
		steal:      host1.stealShare(p.host0),
		peakRSS:    p.peakRSS,
		peakHeap:   p.peakHeap,
		allocBytes: m.TotalAlloc - p.mem0.TotalAlloc,
		gcCycles:   m.NumGC - p.mem0.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - p.mem0.PauseTotalNs),
		cluster: cluster.MetricsSnapshot{
			StagesRun:           c1.StagesRun - c0.StagesRun,
			TasksLaunched:       c1.TasksLaunched - c0.TasksLaunched,
			TaskFailures:        c1.TaskFailures - c0.TaskFailures,
			ShuffleBytesWritten: c1.ShuffleBytesWritten - c0.ShuffleBytesWritten,
			RecordsProcessed:    c1.RecordsProcessed - c0.RecordsProcessed,
			SpilledBytes:        c1.SpilledBytes - c0.SpilledBytes,
		},
	}
}

// hostTicks are the machine-wide CPU tick counters of /proc/stat.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, v := range f[1:] {
		// A field that does not parse counts as 0: the share only
		// annotates the record.
		n, _ := strconv.ParseUint(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

func (t hostTicks) stealShare(since hostTicks) float64 {
	if t.total <= since.total {
		return 0
	}
	return float64(t.steal-since.steal) / float64(t.total-since.total)
}

// residentBytes reads the process's resident set from /proc/self/statm,
// falling back to the Go runtime's total mapped memory off Linux.
func residentBytes() uint64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// host identifies the machine and build a result came from. Results from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func describeHost() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
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

// gitCommit reads the checked-out commit from root's .git directory
// without running git; a checkout without one reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(packed, []byte("\n")) {
		if id, name, ok := strings.Cut(string(line), " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
