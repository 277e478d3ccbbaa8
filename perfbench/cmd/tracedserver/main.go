// Command tracedserver is the benchmark's traced COPS-HTTP server. It
// assembles copshttp.New with the options cmd/copshttp derives from the
// same flags, turns profiling and the metrics listener on, and records
// spans from outside the program:
//
//   - every decoded request and every rendered reply head, by wrapping
//     the httpproto codec (Decode and AppendHead);
//   - the parked-write gauge, sampled every millisecond.
//
// Spans stay in memory and are written to -spans when SIGTERM stops the
// server, one per line: "<kind> <start_unix_ns> <end_unix_ns> <seq>" for
// kinds decode and encode, and "parked <unix_ns> <value>" for gauge
// samples that are not zero.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/copshttp"
	"repro/internal/httpproto"
	"repro/internal/metrics"
	"repro/internal/nserver"
	"repro/internal/options"
)

type span struct {
	kind       byte // 'd' decode, 'e' encode
	start, end int64
	seq        uint64
}

// tracingCodec records a span around each call into httpproto.Codec that
// decodes a request or renders a reply head.
type tracingCodec struct {
	inner httpproto.Codec
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracingCodec) record(kind byte, start time.Time) {
	end := time.Now()
	s := span{kind: kind, start: start.UnixNano(), end: end.UnixNano(), seq: t.seq.Add(1)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracingCodec) Decode(buf []byte) (any, int, error) {
	start := time.Now()
	req, n, err := t.inner.Decode(buf)
	if req != nil {
		t.record('d', start)
	}
	return req, n, err
}

func (t *tracingCodec) Encode(reply any) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.Encode(reply)
	t.record('e', start)
	return b, err
}

func (t *tracingCodec) AppendHead(dst []byte, reply any) (head, body []byte, err error) {
	start := time.Now()
	head, body, err = t.inner.AppendHead(dst, reply)
	t.record('e', start)
	return head, body, err
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "listen address")
		root        = flag.String("root", "", "document root (required)")
		directDisp  = flag.Bool("direct-dispatch", false, "as cmd/copshttp -direct-dispatch")
		metricsAddr = flag.String("metrics-addr", "127.0.0.1:0", "metrics listener")
		spansPath   = flag.String("spans", "", "file the spans are written to at exit (required)")
	)
	flag.Parse()
	if *root == "" || *spansPath == "" {
		fmt.Fprintln(os.Stderr, "tracedserver: -root and -spans are required")
		os.Exit(2)
	}
	// The same derivation as cmd/copshttp with its default flags.
	opts := options.COPSHTTP()
	opts.Profiling = true
	if *directDisp {
		opts.EventDriven = true
		opts.DirectDispatch = true
	}
	opts = opts.WithLargeFiles(1 << 20)

	codec := &tracingCodec{}
	srv, err := copshttp.New(copshttp.Config{DocRoot: *root, Options: &opts, Codec: codec})
	if err != nil {
		fatal(err)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	fw := srv.Framework()
	mcfg := metrics.Config{
		Profile:        fw.Profile(),
		Cache:          fw.Cache(),
		Deferred:       fw.Deferred,
		Shed:           srv.Shed,
		EventDriven:    fw.EventDriven,
		Parked:         fw.ParkedConns,
		ParkedWrites:   fw.ParkedWrites,
		DirectDispatch: fw.DirectDispatch,
	}
	if rc := srv.RespCache(); rc != nil {
		mcfg.RespCache = rc.Stats
	}
	if fio := fw.AIO(); fio != nil {
		mcfg.CollapsedReads = fio.CollapsedReads
		mcfg.DiskReads = fio.DiskReads
	}
	ms, err := metrics.NewServer(*metricsAddr, mcfg)
	if err != nil {
		fatal(err)
	}
	defer ms.Close()

	stop := make(chan struct{})
	samplerDone := make(chan [][2]int64)
	go sampleParked(fw, stop, samplerDone)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// The benchmark reads these two lines to find the listeners.
	fmt.Printf("COPS-HTTP serving %s on %s (traced)\n", *root, srv.Addr())
	fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	<-sig
	srv.Shutdown()
	close(stop)
	parked := <-samplerDone
	codec.mu.Lock()
	spans := codec.spans
	codec.mu.Unlock()
	if err := writeSpans(*spansPath, spans, parked); err != nil {
		fatal(err)
	}
}

// sampleParked polls the parked-write gauge every millisecond and keeps
// the non-zero readings.
func sampleParked(fw *nserver.Server, stop <-chan struct{}, done chan<- [][2]int64) {
	var out [][2]int64
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			done <- out
			return
		case now := <-tk.C:
			if v := fw.ParkedWrites(); v > 0 {
				out = append(out, [2]int64{now.UnixNano(), int64(v)})
			}
		}
	}
}

func writeSpans(path string, spans []span, parked [][2]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		kind := "decode"
		if s.kind == 'e' {
			kind = "encode"
		}
		fmt.Fprintf(w, "%s %d %d %d\n", kind, s.start, s.end, s.seq)
	}
	for _, p := range parked {
		fmt.Fprintf(w, "parked %d %d\n", p[0], p[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedserver:", err)
	os.Exit(1)
}
