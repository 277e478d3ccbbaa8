// Package openloop is the benchmark's open-loop HTTP/1.1 client.
//
// Every arrival has its own due time on a fixed schedule (start + k/rate);
// a connection slot sleeps until the next arrival is due and writes it.
// Arrivals that back up behind unanswered requests are pipelined on the
// connection, up to a fixed depth, instead of being held back. Latency is
// timed from the due time, so a stall is charged to every request queued
// behind it, and every reply is checked: status 200, the expected
// Content-Length and a body equal to the file's path pattern.
//
// Each arrival ends in exactly one of three states: ok, failed (wrong
// status, length or body, a reset, a dial error) or dropped (still
// unfinished when the phase ends). Result.Offered always equals their sum.
package openloop

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// verifyChunk is the span of body bytes compared in one step; each
// Request keeps its path pattern expanded to this length plus one period.
const verifyChunk = 4096

// Request is one pre-rendered GET and the reply it must receive.
type Request struct {
	Wire []byte // the request bytes, written as-is
	Path string
	Size int64 // expected Content-Length
	// period is the pattern's length; pattern is the path pattern
	// repeated to verifyChunk+period bytes, so any verifyChunk-long window
	// of the body starts at pattern[offset%period].
	period  int
	pattern []byte
}

// NewRequest renders a GET for path whose reply body must be size bytes
// of the repeating pattern path+"\n" (workload.FileSet.Materialize's
// content).
func NewRequest(path string, size int64) *Request {
	pat := path + "\n"
	exp := make([]byte, 0, verifyChunk+len(pat))
	for len(exp) < verifyChunk+len(pat) {
		exp = append(exp, pat...)
	}
	return &Request{
		Wire:    []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n"),
		Path:    path,
		Size:    size,
		period:  len(pat),
		pattern: exp,
	}
}

// Config describes one phase: a fixed offered rate over a window.
type Config struct {
	Addr string
	// Conns is the number of connection slots driven in parallel;
	// arrival k belongs to slot k%Conns.
	Conns int
	// PerConn is the number of requests a connection carries before the
	// client closes it and the slot dials a new one; 0 keeps it open.
	PerConn int
	// Depth bounds the requests in flight on one connection.
	Depth int
	// Rate is the offered arrival rate in requests per second.
	Rate float64
	// Window is the span in which arrivals are due.
	Window time.Duration
	// Drain is the grace after Window; arrivals unfinished by then are
	// dropped.
	Drain time.Duration
	// Requests is the arrival sequence: arrival k asks for
	// Requests[(Offset+k)%len(Requests)].
	Requests []*Request
	Offset   int
}

// Sample is one verified reply, with times in nanoseconds since
// Result.Start.
type Sample struct {
	Due   int64 // scheduled send time
	Sent  int64 // just before the write carrying the request
	First int64 // the read that delivered the reply's first byte returned
	Done  int64 // the read that delivered the reply's last byte returned
}

// Result is the outcome of one phase.
type Result struct {
	Start   time.Time
	Offered int
	OK      int
	Failed  int
	Dropped int
	// Pipelined counts requests written while an earlier request on the
	// same connection was still unanswered.
	Pipelined int
	Samples   []Sample
	// Dials holds each connect's duration in nanoseconds.
	Dials []int64
	// Errors keeps the first few failure causes for diagnosis.
	Errors []string
}

// Consistent reports whether every offered arrival was accounted for.
func (r *Result) Consistent() bool { return r.Offered == r.OK+r.Failed+r.Dropped }

// ErrorRate is (failed+dropped)/offered.
func (r *Result) ErrorRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Failed+r.Dropped) / float64(r.Offered)
}

// Quantile returns the q-quantile of f over the samples (nearest rank),
// or 0 without samples.
func (r *Result) Quantile(q float64, f func(Sample) int64) int64 {
	return Quantile(r.Samples, q, f)
}

// Quantile returns the q-quantile (nearest rank) of f over samples.
func Quantile(samples []Sample, q float64, f func(Sample) int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	v := make([]int64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// Latency is due → last byte: what a user arriving on schedule waits.
func Latency(s Sample) int64 { return s.Done - s.Due }

// Service is write → last byte: the server's turnaround once the request
// is on the wire.
func Service(s Sample) int64 { return s.Done - s.Sent }

// Late is due → write: how far the generator fell behind its schedule.
func Late(s Sample) int64 { return s.Sent - s.Due }

// Run drives one phase to completion and returns its accounting.
func Run(cfg Config) *Result {
	if cfg.Conns < 1 || cfg.Depth < 1 || cfg.Rate <= 0 || len(cfg.Requests) == 0 {
		panic(fmt.Sprintf("openloop: invalid config %+v", cfg))
	}
	start := time.Now()
	slots := make([]slot, cfg.Conns)
	var wg sync.WaitGroup
	for i := range slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots[i].run(&cfg, start, i)
		}(i)
	}
	wg.Wait()
	res := &Result{Start: start}
	for i := range slots {
		s := &slots[i]
		res.Offered += s.offered
		res.OK += s.ok
		res.Failed += s.failed
		res.Dropped += s.dropped
		res.Pipelined += s.pipelined
		res.Samples = append(res.Samples, s.samples...)
		res.Dials = append(res.Dials, s.dials...)
		for _, e := range s.errs {
			if len(res.Errors) < 8 {
				res.Errors = append(res.Errors, e)
			}
		}
	}
	return res
}

// tally is the per-connection or per-slot accounting.
type tally struct {
	offered, ok, failed, dropped, pipelined int
	samples                                 []Sample
	dials                                   []int64
	errs                                    []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o *tally) {
	t.ok += o.ok
	t.failed += o.failed
	t.dropped += o.dropped
	t.samples = append(t.samples, o.samples...)
	t.errs = append(t.errs, o.errs...)
}

// slot is one connection slot: it writes its arrivals on schedule over a
// sequence of connections, one at a time.
type slot struct{ tally }

type pending struct {
	req       *Request
	due, sent int64
}

func (s *slot) run(cfg *Config, start time.Time, id int) {
	window := cfg.Window.Nanoseconds()
	drainAt := start.Add(cfg.Window + cfg.Drain)
	stop := time.NewTimer(time.Until(drainAt))
	defer stop.Stop()
	dueOf := func(k int) int64 { return int64(float64(k) * 1e9 / cfg.Rate) }
	var c *conn
	var wbuf []byte
	batch := make([]pending, 0, cfg.Depth)
	k := id
	stopped := false
	for !stopped {
		due := dueOf(k)
		if due >= window {
			break
		}
		sleepUntil(start, due)
		if c != nil && c.broken.Load() {
			s.add(c.finish())
			c = nil
		}
		if c == nil {
			t0 := time.Now()
			nc, err := net.DialTimeout("tcp", cfg.Addr, time.Until(drainAt))
			if err != nil {
				s.offered++
				if time.Now().Before(drainAt) {
					s.fail(fmt.Errorf("dial: %w", err))
				} else {
					s.dropped++
				}
				k += cfg.Conns
				continue
			}
			s.dials = append(s.dials, time.Since(t0).Nanoseconds())
			c = newConn(nc, cfg.Depth, start, drainAt)
		}
		// Take every arrival due by now, up to the free pipeline depth;
		// the first one waits for a free slot if the connection is full.
		batch = batch[:0]
	collect:
		for {
			if len(batch) == 0 {
				select {
				case c.tokens <- struct{}{}:
				case <-stop.C:
					stopped = true
				}
			} else {
				select {
				case c.tokens <- struct{}{}:
				default:
					break collect
				}
			}
			if stopped {
				break
			}
			batch = append(batch, pending{req: cfg.Requests[(cfg.Offset+k)%len(cfg.Requests)], due: due})
			s.offered++
			k += cfg.Conns
			c.sent++
			if cfg.PerConn > 0 && c.sent == cfg.PerConn {
				break
			}
			if due = dueOf(k); due >= window || due > time.Since(start).Nanoseconds() {
				break
			}
		}
		if len(batch) > 0 {
			if len(c.tokens) > len(batch) {
				s.pipelined += len(batch)
			} else {
				s.pipelined += len(batch) - 1
			}
			wbuf = wbuf[:0]
			for i := range batch {
				wbuf = append(wbuf, batch[i].req.Wire...)
			}
			now := time.Since(start).Nanoseconds()
			for i := range batch {
				batch[i].sent = now
				c.pending <- batch[i]
			}
			if _, err := c.nc.Write(wbuf); err != nil {
				// The reader fails the batch when its reads hit the
				// closed socket.
				c.breakWith()
			}
		}
		if cfg.PerConn > 0 && c.sent == cfg.PerConn {
			s.add(c.finish())
			c = nil
		}
	}
	if c != nil {
		s.add(c.finish())
	}
	// Arrivals due in the window but never written are dropped.
	for ; dueOf(k) < window; k += cfg.Conns {
		s.offered++
		s.dropped++
	}
}

// sleepUntil blocks until due nanoseconds after start. It sleeps in
// nanosleep(2) on the calling thread: the Go timer wakes through the
// poller, whose millisecond timeout would make every sub-millisecond wait
// about half a millisecond late and bunch arrivals together.
func sleepUntil(start time.Time, due int64) {
	for {
		d := due - time.Since(start).Nanoseconds()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// conn is one connection: the slot writes on it, a reader goroutine
// reads and verifies its replies in request order.
type conn struct {
	nc      net.Conn
	tokens  chan struct{} // one per request in flight; capacity = depth
	pending chan pending  // written requests, in order; capacity = depth
	done    chan struct{}
	broken  atomic.Bool
	sent    int // written by the slot goroutine only

	// Reader state.
	start    time.Time
	drainAt  time.Time
	buf      []byte
	r, w     int
	lastRead int64 // when the latest read returned, ns since start
	t        tally
}

func newConn(nc net.Conn, depth int, start, drainAt time.Time) *conn {
	c := &conn{
		nc:      nc,
		tokens:  make(chan struct{}, depth),
		pending: make(chan pending, depth),
		done:    make(chan struct{}),
		start:   start,
		drainAt: drainAt,
		buf:     make([]byte, 64<<10),
	}
	// Replies still unfinished when the phase ends are dropped.
	_ = nc.SetReadDeadline(drainAt)
	go c.read()
	return c
}

func (c *conn) breakWith() {
	c.broken.Store(true)
	c.nc.Close()
}

// finish stops writing, waits for the reader to settle every written
// request and returns its accounting.
func (c *conn) finish() *tally {
	close(c.pending)
	<-c.done
	return &c.t
}

func (c *conn) read() {
	defer close(c.done)
	defer c.nc.Close()
	var rerr error
	for p := range c.pending {
		if rerr == nil {
			var s Sample
			if s, rerr = c.readReply(p); rerr == nil {
				c.t.ok++
				c.t.samples = append(c.t.samples, s)
				<-c.tokens
				continue
			}
			c.breakWith()
		}
		if time.Now().Before(c.drainAt) {
			c.t.fail(rerr)
		} else {
			c.t.dropped++
		}
		<-c.tokens
	}
}

var (
	errStatus = errors.New("status is not 200")
	errLength = errors.New("Content-Length differs from the file size")
	errBody   = errors.New("body differs from the file content")
	errHead   = errors.New("reply head too large or malformed")
)

// fill reads more bytes into the buffer, compacting it first when the
// unread part has reached the end.
func (c *conn) fill() error {
	if c.r == c.w {
		c.r, c.w = 0, 0
	} else if c.w == len(c.buf) {
		if c.r == 0 {
			return errHead
		}
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	n, err := c.nc.Read(c.buf[c.w:])
	c.lastRead = time.Since(c.start).Nanoseconds()
	c.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = errors.New("empty read")
	}
	return err
}

func (c *conn) readReply(p pending) (Sample, error) {
	s := Sample{Due: p.due, Sent: p.sent}
	if c.r == c.w {
		if err := c.fill(); err != nil {
			return s, err
		}
	}
	s.First = c.lastRead
	var end int
	for {
		if end = bytes.Index(c.buf[c.r:c.w], []byte("\r\n\r\n")); end >= 0 {
			break
		}
		if err := c.fill(); err != nil {
			return s, err
		}
	}
	head := c.buf[c.r : c.r+end]
	c.r += end + 4
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 200 ")) {
		line := head
		if i := bytes.IndexByte(line, '\r'); i >= 0 {
			line = line[:i]
		}
		return s, fmt.Errorf("%w: %q for %s", errStatus, line, p.req.Path)
	}
	if n, ok := contentLength(head); !ok || n != p.req.Size {
		return s, fmt.Errorf("%w: %s got %d want %d", errLength, p.req.Path, n, p.req.Size)
	}
	for off := int64(0); off < p.req.Size; {
		if c.r == c.w {
			if err := c.fill(); err != nil {
				return s, fmt.Errorf("body of %s at %d/%d: %w", p.req.Path, off, p.req.Size, err)
			}
		}
		n := c.w - c.r
		if rest := p.req.Size - off; int64(n) > rest {
			n = int(rest)
		}
		if n > verifyChunk {
			n = verifyChunk
		}
		ph := int(off % int64(p.req.period))
		if !bytes.Equal(c.buf[c.r:c.r+n], p.req.pattern[ph:ph+n]) {
			return s, fmt.Errorf("%w: %s at %d", errBody, p.req.Path, off)
		}
		c.r += n
		off += int64(n)
	}
	s.Done = c.lastRead
	return s, nil
}

// contentLength finds the Content-Length header in a reply head.
func contentLength(head []byte) (int64, bool) {
	for len(head) > 0 {
		line := head
		if i := bytes.Index(head, []byte("\r\n")); i >= 0 {
			line, head = head[:i], head[i+2:]
		} else {
			head = nil
		}
		const name = "content-length:"
		if len(line) > len(name) && bytes.EqualFold(line[:len(name)], []byte(name)) {
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line[len(name):])), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}
