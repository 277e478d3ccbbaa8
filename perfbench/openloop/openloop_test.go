package openloop

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// body renders the reply body a correct server sends for path.
func body(path string, size int64) []byte {
	pat := path + "\n"
	b := make([]byte, size)
	for i := range b {
		b[i] = pat[i%len(pat)]
	}
	return b
}

// fakeServer answers every request with reply(n, path), n counting
// requests across all connections from 0. It stops when the test ends.
func fakeServer(t *testing.T, reply func(n int64, path string) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var count atomic.Int64
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					for {
						h, err := br.ReadString('\n')
						if err != nil {
							return
						}
						if h == "\r\n" {
							break
						}
					}
					f := strings.Fields(line)
					if _, err := c.Write(reply(count.Add(1)-1, f[1])); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func ok200(path string, size int64) []byte {
	return append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)), body(path, size)...)
}

func requests() ([]*Request, map[string]int64) {
	sizes := map[string]int64{"/a": 100, "/dir/b": 5000, "/c": 70000}
	var reqs []*Request
	for _, p := range []string{"/a", "/dir/b", "/a", "/c"} {
		reqs = append(reqs, NewRequest(p, sizes[p]))
	}
	return reqs, sizes
}

func phase(addr string, reqs []*Request, rate float64, window time.Duration) Config {
	return Config{
		Addr: addr, Conns: 2, Depth: 4, Rate: rate,
		Window: window, Drain: time.Second, Requests: reqs,
	}
}

func TestCorrectServerHasNoErrors(t *testing.T) {
	reqs, sizes := requests()
	addr := fakeServer(t, func(_ int64, p string) []byte { return ok200(p, sizes[p]) })
	res := Run(phase(addr, reqs, 2000, 300*time.Millisecond))
	if !res.Consistent() || res.OK != res.Offered || res.ErrorRate() != 0 {
		t.Fatalf("offered=%d ok=%d failed=%d dropped=%d errs=%v",
			res.Offered, res.OK, res.Failed, res.Dropped, res.Errors)
	}
	if res.Offered != 600 {
		t.Fatalf("offered %d arrivals, want 600", res.Offered)
	}
}

func TestChurnRedialsEveryPerConnRequests(t *testing.T) {
	reqs, sizes := requests()
	addr := fakeServer(t, func(_ int64, p string) []byte { return ok200(p, sizes[p]) })
	cfg := phase(addr, reqs, 1000, 200*time.Millisecond)
	cfg.PerConn = 5
	res := Run(cfg)
	if res.ErrorRate() != 0 || !res.Consistent() {
		t.Fatalf("failed=%d dropped=%d errs=%v", res.Failed, res.Dropped, res.Errors)
	}
	if want := res.Offered / 5; len(res.Dials) != want {
		t.Fatalf("%d dials for %d requests, want %d", len(res.Dials), res.Offered, want)
	}
}

// A wrong status, wrong bytes or a short body must each count as failed.
func TestWrongRepliesCountAsErrors(t *testing.T) {
	reqs, sizes := requests()
	bad := map[string]func(p string) []byte{
		"404": func(p string) []byte {
			return []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
		},
		"wrong bytes": func(p string) []byte {
			r := ok200(p, sizes[p])
			r[len(r)-1] ^= 0xff
			return r
		},
		"short body": func(p string) []byte {
			r := ok200(p, sizes[p])
			return r[:len(r)-1]
		},
		"wrong length": func(p string) []byte {
			return append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", sizes[p]-1)), body(p, sizes[p]-1)...)
		},
	}
	for name, f := range bad {
		t.Run(name, func(t *testing.T) {
			// Every tenth request gets the bad reply; a short body also
			// needs the connection closed to be detected before the drain.
			addr := fakeServer(t, func(n int64, p string) []byte {
				if n%10 == 9 {
					return f(p)
				}
				return ok200(p, sizes[p])
			})
			res := Run(phase(addr, reqs, 1000, 200*time.Millisecond))
			if !res.Consistent() {
				t.Fatalf("identity broken: offered=%d ok=%d failed=%d dropped=%d",
					res.Offered, res.OK, res.Failed, res.Dropped)
			}
			if res.ErrorRate() == 0 {
				t.Fatalf("error rate 0 against a server sending %s", name)
			}
		})
	}
}

// A server that stalls raises the latency tail, timed from the schedule,
// but not the median service time, timed from the write.
func TestStallRaisesLatencyNotService(t *testing.T) {
	reqs, sizes := requests()
	const stall = 150 * time.Millisecond
	addr := fakeServer(t, func(n int64, p string) []byte {
		if n == 100 {
			time.Sleep(stall)
		}
		return ok200(p, sizes[p])
	})
	res := Run(phase(addr, reqs, 1000, 600*time.Millisecond))
	if res.ErrorRate() != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	p99 := time.Duration(res.Quantile(0.99, Latency))
	svc := time.Duration(res.Quantile(0.50, Service))
	if p99 < stall/2 {
		t.Fatalf("latency p99 %v does not show a %v stall", p99, stall)
	}
	if svc > stall/10 {
		t.Fatalf("service p50 %v absorbed the %v stall", svc, stall)
	}
}

// A generator held up by a busy host shows it as lateness.
func TestBusyHostShowsAsLateness(t *testing.T) {
	reqs, sizes := requests()
	addr := fakeServer(t, func(_ int64, p string) []byte { return ok200(p, sizes[p]) })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 0
			for !stop.Load() {
				x++
			}
			_ = x
		}()
	}
	res := Run(phase(addr, reqs, 1000, 500*time.Millisecond))
	stop.Store(true)
	wg.Wait()
	if late := time.Duration(res.Quantile(0.99, Late)); late < 5*time.Millisecond {
		t.Fatalf("late p99 %v with four spinning goroutines on one P", late)
	}
	if !res.Consistent() {
		t.Fatal("identity broken")
	}
}

func TestContentLength(t *testing.T) {
	n, ok := contentLength([]byte("HTTP/1.1 200 OK\r\nDate: x\r\ncontent-LENGTH:  42 "))
	if !ok || n != 42 {
		t.Fatalf("got %d %v", n, ok)
	}
	if _, ok := contentLength(bytes.Repeat([]byte("x"), 10)); ok {
		t.Fatal("found a length in a head without one")
	}
}
