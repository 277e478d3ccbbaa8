package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/perfbench/openloop"
)

// server is one running server process.
type server struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string // traced server only
	stdoutDone  chan struct{}
	stopped     bool
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

var (
	servingRe = regexp.MustCompile(`COPS-HTTP serving .* on (\S+) \(`)
	metricsRe = regexp.MustCompile(`^metrics on http://(\S+)/metrics`)
)

// start execs bin from b.bin with the workload's flags and waits until
// it prints its listen address (and its metrics address when traced).
func (b *bench) start(bin string, flags []string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-root", b.root}, flags...)
	cmd := exec.Command(filepath.Join(b.bin, bin), args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	// The server dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := cmd.Start
	if b.place != nil {
		start = func() error { return b.place.spawn(cmd.Start) }
	}
	if err := start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdoutDone: make(chan struct{})}
	b.servers = append(b.servers, s)
	traced := bin == "tracedserver"
	ready := make(chan error, 1)
	// Only the first signal matters; later ones must not block the
	// goroutine that drains the server's output.
	signal := func(err error) {
		select {
		case ready <- err:
		default:
		}
	}
	go func() {
		defer close(s.stdoutDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if m := servingRe.FindStringSubmatch(line); m != nil {
				s.addr = m[1]
				if !traced {
					signal(nil)
				}
			} else if m := metricsRe.FindStringSubmatch(line); m != nil {
				s.metricsAddr = m[1]
				signal(nil)
			}
		}
		signal(fmt.Errorf("%s exited before serving", bin))
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case err := <-ready:
		if err != nil {
			return nil, err
		}
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("%s did not report its address within 30s", bin)
	}
	return s, nil
}

// startTimed starts the server and returns the time from exec to its
// first verified 200, the first request of the arrival sequence.
func (b *bench) startTimed(bin string, flags []string) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := b.start(bin, flags)
	if err != nil {
		return nil, 0, err
	}
	res := openloop.Run(openloop.Config{
		Addr: s.addr, Conns: 1, Depth: 1, Rate: 1e9, Window: time.Nanosecond,
		Drain: 10 * time.Second, Requests: b.reqs[:1],
	})
	d := time.Since(t0)
	if res.OK != 1 {
		return nil, 0, fmt.Errorf("%s: first request not served: %v", bin, res.Errors)
	}
	return s, d, nil
}

// stop ends the server with SIGTERM, as an operator would, and waits for
// it to exit.
func (b *bench) stop(s *server) error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-s.stdoutDone
		exited <- s.cmd.Wait()
	}()
	select {
	case err := <-exited:
		// cmd/copshttp installs its SIGTERM handler after it reports its
		// address, so a stop right after start may find the default
		// action still in place.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("server exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("server ignored SIGTERM for 20s")
	}
}

// stopAll kills whatever is still running, on the error path.
func (b *bench) stopAll() {
	for _, s := range b.servers {
		if !s.stopped {
			s.stopped = true
			_ = s.cmd.Process.Kill()
			<-s.stdoutDone
			_ = s.cmd.Wait()
		}
	}
}
