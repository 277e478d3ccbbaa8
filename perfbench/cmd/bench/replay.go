package main

import (
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aio"
	"repro/internal/cache"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/httpproto"
	"repro/internal/options"
	"repro/internal/reactor"
	"repro/internal/respcache"
	"repro/internal/workload"
)

// Replays per layer stop after this many calls; each call's inputs come
// from the traced window in order, cycling when the window is shorter.
const replayCalls = 4000

// replayResult holds each layer's self time on the workload's inputs.
type replayResult struct {
	decodeNs, encodeNs, lookupNs float64
	getNs, putNs                 float64
	gets, puts, misses           int
	readUs, hopUs                float64
	reads                        int
	writevNs                     float64
	writevCalls                  int
}

func (r *replayResult) report() map[string]any {
	return map[string]any{
		"decode_ns": r.decodeNs, "encode_ns": r.encodeNs, "lookup_ns": r.lookupNs,
		"cache_get_ns": r.getNs, "cache_put_ns": r.putNs, "cache_gets": r.gets,
		"cache_puts": r.puts, "cache_window_misses": r.misses,
		"aio_read_us_p50": r.readUs, "aio_reads": r.reads, "eventproc_hop_us_p50": r.hopUs,
		"writev_ns_p50": r.writevNs, "writev_calls": r.writevCalls,
	}
}

// window returns the files of the n arrivals starting at sequence index
// first.
func (b *bench) window(first, n int) []workload.FileSpec {
	out := make([]workload.FileSpec, n)
	for i := range out {
		out[i] = b.files[(first+i)%len(b.files)]
	}
	return out
}

// replay runs the window's inputs through each layer's public calls,
// with the server's own capacities and policies, after the server has
// stopped so nothing else competes for the processors.
func (b *bench) replay(warmStart, first int, win []workload.FileSpec) *replayResult {
	var r replayResult
	if len(win) == 0 {
		return &r
	}
	at := func(i int) workload.FileSpec { return win[i%len(win)] }
	zeros := make([]byte, 1<<20)
	modTime := time.Now().Add(-time.Hour)

	// httpproto: parse the generator's exact request bytes.
	r.decodeNs = perCall(func(i int) {
		_, _, _ = httpproto.ParseRequest(b.reqs[(first+i)%len(b.reqs)].Wire)
	})
	// httpproto: render the head copshttp renders for each reply.
	resp := &httpproto.Response{Status: 200, Headers: httpproto.NewHeader()}
	var head []byte
	r.encodeNs = perCall(func(i int) {
		f := at(i)
		resp.Headers.Reset()
		resp.Headers.Set("Content-Type", httpproto.MimeType(f.Path))
		resp.Headers.Set("Accept-Ranges", "bytes")
		resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(modTime))
		resp.Body = zeros[:f.Size]
		head = httpproto.AppendResponseHead(head[:0], resp)
	})

	// respcache: every file of the window stored, then looked up in order.
	rc := respcache.New(runtime.GOMAXPROCS(0), 0)
	full := func(f workload.FileSpec) string { return filepath.Join(b.root, filepath.FromSlash(f.Path)) }
	keys := make([]string, len(win))
	for i, f := range win {
		keys[i] = full(f)
		if _, _, ok := rc.Lookup(keys[i]); !ok {
			resp.Headers.Reset()
			resp.Headers.Set("Content-Type", httpproto.MimeType(f.Path))
			resp.Body = zeros[:f.Size]
			rc.Store(keys[i], httpproto.AppendResponseHead(nil, resp), resp.Body, modTime, f.Size)
		}
	}
	r.lookupNs = perCall(func(i int) { _, _, _ = rc.Lookup(keys[i%len(keys)]) })

	// cache: the traced server's whole sequence, from its warm-up to the
	// window's end, through a file cache at the server's capacity and
	// policy, so the window starts from the state the server's cache had;
	// only the window's calls are timed. Its misses are the files the aio
	// replay reads.
	var missed []workload.FileSpec
	r.getNs, r.putNs, r.gets, r.puts, missed = b.replayCache(warmStart, first, len(win), zeros)
	r.misses = len(missed)
	if len(missed) == 0 {
		missed = win
	}
	r.readUs, r.reads = replayAIO(missed, full)
	r.hopUs = replayHop()
	r.writevNs, r.writevCalls = replayWritev(win, zeros)
	return &r
}

// perCall times fn over replayCalls calls in rounds of 256 and returns
// the median round's mean nanoseconds per call.
func perCall(fn func(i int)) float64 {
	const round = 256
	var means []float64
	for i := 0; i < replayCalls; i += round {
		t0 := time.Now()
		for j := i; j < i+round; j++ {
			fn(j)
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/round)
	}
	return median(means)
}

// replayCache returns the median Get and Put nanoseconds over the window,
// less the clock-read cost, and the window's missed files.
func (b *bench) replayCache(warmStart, first, n int, zeros []byte) (getNs, putNs float64, gets, puts int, missed []workload.FileSpec) {
	fc, err := cache.New(20<<20, options.LRU, cache.Config{Shards: cache.DefaultShards(20 << 20), MaxEntryBytes: 1 << 20})
	if err != nil {
		return 0, 0, 0, 0, nil
	}
	clock := clockCost()
	lead := (first - warmStart + len(b.files)) % len(b.files)
	var g, p []int64
	for i := 0; i < lead+n; i++ {
		f := b.files[(warmStart+i)%len(b.files)]
		inWindow := i >= lead
		t0 := time.Now()
		_, ok := fc.Get(f.Path)
		t1 := time.Now()
		if inWindow && len(g) < replayCalls {
			g = append(g, t1.Sub(t0).Nanoseconds()-clock)
		}
		if !ok {
			t0 = time.Now()
			fc.Put(f.Path, zeros[:f.Size])
			t1 = time.Now()
			if len(p) < replayCalls {
				p = append(p, t1.Sub(t0).Nanoseconds()-clock)
			}
			if inWindow {
				missed = append(missed, f)
			}
		}
	}
	return float64(quantile(g, 0.5)), float64(quantile(p, 0.5)), len(g), len(p), missed
}

// clockCost is the median cost of one back-to-back pair of clock reads.
func clockCost() int64 {
	v := make([]int64, 1000)
	for i := range v {
		t0 := time.Now()
		v[i] = time.Since(t0).Nanoseconds()
	}
	return quantile(v, 0.5)
}

// replayAIO reads the missed files through an aio.Service with the
// server's file-I/O pool size and returns the median submit-to-done
// microseconds.
func replayAIO(files []workload.FileSpec, full func(workload.FileSpec) string) (float64, int) {
	svc, err := aio.New(aio.Config{Workers: options.COPSHTTP().FileIOThreads, Mode: options.SynchronousCompletion})
	if err != nil {
		return 0, 0
	}
	svc.Start()
	defer svc.Stop()
	done := make(chan struct{}, 1)
	var v []int64
	for i := 0; i < len(files) && i < 1000; i++ {
		t0 := time.Now()
		if _, err := svc.ReadFile(full(files[i]), nil, 0, func(events.Token, []byte, error) { done <- struct{}{} }); err != nil {
			continue
		}
		<-done
		v = append(v, time.Since(t0).Nanoseconds())
	}
	return us(quantile(v, 0.5)), len(v)
}

// replayHop measures the eventproc queue hop: Submit on an idle pool of
// the server's event-thread count until the event starts processing.
func replayHop() float64 {
	p, err := eventproc.New(eventproc.Config{Name: "replay", Workers: options.COPSHTTP().EventThreads})
	if err != nil {
		return 0
	}
	p.Start()
	defer p.Stop()
	got := make(chan int64, 1)
	var v []int64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := p.Submit(events.Func(func() { got <- time.Since(t0).Nanoseconds() })); err != nil {
			return 0
		}
		v = append(v, <-got)
	}
	return us(quantile(v, 0.5))
}

// replayWritev writes each reply of the window (head plus body) over a
// loopback connection with reactor.NonblockWritev and returns the median
// nanoseconds per call.
func replayWritev(win []workload.FileSpec, zeros []byte) (float64, int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0
	}
	_, rc, err := reactor.ConnFD(c.(*net.TCPConn))
	if err != nil {
		c.Close()
		return 0, 0
	}
	head := make([]byte, 200)
	var v []int64
	for i := 0; i < replayCalls && len(v) < replayCalls; i++ {
		body := zeros[:win[i%len(win)].Size]
		seg0 := head
		for len(seg0)+len(body) > 0 {
			t0 := time.Now()
			n, again, err := reactor.NonblockWritev(rc, seg0, body)
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				c.Close()
				<-drained
				return 0, 0
			}
			if again {
				runtime.Gosched()
				continue
			}
			v = append(v, d)
			if n >= len(seg0) {
				body = body[n-len(seg0):]
				seg0 = nil
			} else {
				seg0 = seg0[n:]
			}
		}
	}
	c.Close()
	<-drained
	return float64(quantile(v, 0.5)), len(v)
}
