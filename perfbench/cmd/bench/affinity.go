package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// placement gives the server the first CPU this process may use and the
// client the others. Kept apart, neither process takes the other's
// processor, and the scheduler cannot switch them between a shared and a
// split placement from one run to the next, which otherwise splits the
// service time into two modes. The server still runs GOMAXPROCS equal to
// every CPU the benchmark may use, as it would unpinned; its default
// shard count follows the one CPU in its mask.
type placement struct {
	server, client         cpuMask
	serverCPUs, clientCPUs []int
}

// newPlacement pins this process to the client's CPUs; it returns nil,
// pinning nothing, on a machine with a single CPU.
func newPlacement() (*placement, error) {
	var all cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	p := &placement{}
	for cpu := 0; cpu < len(all)*64; cpu++ {
		switch {
		case !all.has(cpu):
		case len(p.serverCPUs) == 0:
			p.serverCPUs = append(p.serverCPUs, cpu)
			p.server.set(cpu)
		default:
			p.clientCPUs = append(p.clientCPUs, cpu)
			p.client.set(cpu)
		}
	}
	if len(p.clientCPUs) == 0 {
		return nil, nil
	}
	return p, p.pinSelf()
}

// pinSelf moves every thread of this process to the client's CPUs;
// threads created later inherit the mask from their creator.
func (p *placement) pinSelf() error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if err := setAffinity(tid, &p.client); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	return nil
}

// spawn runs start on a thread pinned to the server's CPU, so the child
// it forks inherits that mask, then returns every thread to the client's.
func (p *placement) spawn(start func() error) error {
	runtime.LockOSThread()
	err := setAffinity(0, &p.server)
	if err == nil {
		err = start()
	}
	runtime.UnlockOSThread()
	if perr := p.pinSelf(); err == nil {
		err = perr
	}
	return err
}
