// Package procstat reads a process's resource counters from /proc.
package procstat

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Snapshot is one reading of a process's cumulative counters.
type Snapshot struct {
	UserTicks, SysTicks uint64 // utime, stime, in clock ticks
	SysRead, SysWrite   uint64 // syscr, syscw from /proc/<pid>/io
	// VolCS and InvolCS sum voluntary and involuntary context switches
	// over every live thread.
	VolCS, InvolCS uint64
	// RunNs sums the threads' time on a CPU from schedstat: the same
	// quantity as utime+stime, at nanosecond resolution instead of clock
	// ticks, so short windows can be measured.
	RunNs  uint64
	HWMKiB uint64 // VmHWM, peak resident set
}

// Sub returns the counter deltas s-o; HWMKiB keeps s's value.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		UserTicks: s.UserTicks - o.UserTicks,
		SysTicks:  s.SysTicks - o.SysTicks,
		SysRead:   s.SysRead - o.SysRead,
		SysWrite:  s.SysWrite - o.SysWrite,
		VolCS:     s.VolCS - o.VolCS,
		InvolCS:   s.InvolCS - o.InvolCS,
		RunNs:     s.RunNs - o.RunNs,
		HWMKiB:    s.HWMKiB,
	}
}

// Read takes a snapshot of pid ("self" for the calling process).
func Read(pid string) (Snapshot, error) {
	var s Snapshot
	dir := filepath.Join("/proc", pid)
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, fmt.Errorf("procstat: malformed %s/stat", dir)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return s, fmt.Errorf("procstat: short %s/stat", dir)
	}
	if s.UserTicks, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return s, err
	}
	if s.SysTicks, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return s, err
	}
	io, err := fields(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	s.SysRead, s.SysWrite = io["syscr"], io["syscw"]
	status, err := fields(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.HWMKiB = status["VmHWM"]
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		// A thread that exits between the listing and the read is skipped.
		ts, err := fields(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue
		}
		s.VolCS += ts["voluntary_ctxt_switches"]
		s.InvolCS += ts["nonvoluntary_ctxt_switches"]
		s.RunNs += runNs(filepath.Join(dir, "task", t.Name()))
	}
	return s, nil
}

// RunNs reads only the threads' summed CPU time, the cheap part of Read.
func RunNs(pid string) uint64 {
	dir := filepath.Join("/proc", pid, "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum uint64
	for _, t := range tasks {
		sum += runNs(filepath.Join(dir, t.Name()))
	}
	return sum
}

// runNs is the first field of a thread's schedstat, 0 if it is gone.
func runNs(taskDir string) uint64 {
	b, err := os.ReadFile(filepath.Join(taskDir, "schedstat"))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseUint(f[0], 10, 64)
	return n
}

// fields parses "key: value [unit]" lines, keeping numeric values.
func fields(path string) (map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if fs := strings.Fields(v); len(fs) > 0 {
			if n, err := strconv.ParseUint(fs[0], 10, 64); err == nil {
				m[k] = n
			}
		}
	}
	return m, sc.Err()
}

// Steal returns the machine's stolen time in clock ticks, summed over
// CPUs: time a hypervisor ran something else while this machine's CPUs
// had work (/proc/stat).
func Steal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}
