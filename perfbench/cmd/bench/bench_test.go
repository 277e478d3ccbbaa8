package main

import (
	"math"
	"testing"
	"time"

	"repro/perfbench/openloop"
)

func TestQuietKeepsFullWindowsWithLeastSteal(t *testing.T) {
	full := make([]openloop.Sample, 10)
	ws := []win{
		{steal: 5, due: full, done: 10},
		{steal: 0, due: full, done: 10, serverNs: 7},
		{steal: 9, due: full, done: 10},
		{steal: 1, due: full, done: 10, serverNs: 3},
		{steal: 0, due: full[:2], done: 2}, // the drain: too few replies
	}
	// Four full windows: the quietest quarter is the one without steal.
	q := quiet(ws, 5)
	if len(q) != 1 || q[0].serverNs != 7 {
		t.Fatalf("quiet kept %+v", q)
	}
	// On a quiet host every window ties at the least steal and all stay.
	calm := []win{{due: full}, {due: full}, {due: full}, {due: full}, {due: full, steal: 1}}
	if got := quiet(calm, 5); len(got) != 4 {
		t.Fatalf("calm host: kept %d windows, want 4", len(got))
	}
	if got := quiet(ws[4:], 5); len(got) != 1 {
		t.Fatalf("no full window: want every window back, got %d", len(got))
	}
	st := pool(ws[:4])
	if st.done != 40 || st.serverNs != 10 || st.steal != 15 || len(st.samples) != 40 {
		t.Fatalf("pooled %+v", st)
	}
}

func TestWindowsSplitAtReadings(t *testing.T) {
	start := time.Now()
	res := &openloop.Result{Start: start, Samples: []openloop.Sample{
		{Due: 10, Sent: 10, Done: 60},
		{Due: 40, Sent: 40, Done: 150}, // due in the first window, done in the second
		{Due: 120, Sent: 120, Done: 130},
	}}
	pts := []point{
		{at: start, server: 0, steal: 0},
		{at: start.Add(100), server: 1000, steal: 2},
		{at: start.Add(200), server: 5000, steal: 2},
	}
	ws := windows(res, pts)
	if len(ws) != 2 {
		t.Fatalf("%d windows", len(ws))
	}
	if len(ws[0].due) != 2 || ws[0].done != 1 || ws[0].steal != 2 || ws[0].serverNs != 1000 {
		t.Fatalf("first window %+v", ws[0])
	}
	if len(ws[1].due) != 1 || ws[1].done != 2 || ws[1].steal != 0 || ws[1].serverNs != 4000 {
		t.Fatalf("second window %+v", ws[1])
	}
}

// The Prometheus rendering leaves out empty buckets, so a bound missing
// from the first scrape carries the count of the largest bound below it.
func TestDeltaFlushP99FromCumulativeBuckets(t *testing.T) {
	inf := math.Inf(1)
	a := &counters{requests: 10, flushBuckets: map[float64]uint64{0.001: 5, inf: 5}}
	b := &counters{requests: 110, flushBuckets: map[float64]uint64{0.001: 5, 0.004: 104, 0.016: 105, inf: 105}}
	d := delta(a, b)
	if d.requests != 100 || d.flushes != 100 {
		t.Fatalf("requests %d flushes %d", d.requests, d.flushes)
	}
	if d.flushP99Ms != 4 {
		t.Fatalf("flush p99 %vms, want 4ms", d.flushP99Ms)
	}
	if d := delta(a, a); d.flushP99Ms != 0 || d.flushes != 0 {
		t.Fatalf("no flushes in the window: %+v", d)
	}
}

func TestGrowingBacklog(t *testing.T) {
	steady, rising := &openloop.Result{}, &openloop.Result{}
	for i := int64(0); i < 100; i++ {
		due := i * 1e6
		steady.Samples = append(steady.Samples, openloop.Sample{Due: due, Sent: due, Done: due + 2e6})
		rising.Samples = append(rising.Samples, openloop.Sample{Due: due, Sent: due, Done: due + i*5e5})
	}
	if growing(steady, 20) {
		t.Fatal("steady latency reported as a growing backlog")
	}
	if !growing(rising, 20) {
		t.Fatal("latency rising by 50ms over the step not reported")
	}
}
