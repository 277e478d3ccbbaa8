package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/perfbench/openloop"
)

// runTraced measures the untraced copshttp at the fixed rate, then the
// traced server at the same rate, and derives the per-layer metrics from
// the traced window: /metrics.json deltas, /proc deltas, the server's
// codec spans, the client's own spans and the replay of the window's
// inputs through each layer.
func (b *bench) runTraced() (map[string]metric, map[string]any, error) {
	span := time.Duration(b.seconds / 3 * float64(time.Second))

	plain, err := b.start("copshttp", b.w.ServerFlags)
	if err != nil {
		return nil, nil, err
	}
	if _, err := b.warmup(plain); err != nil {
		return nil, nil, err
	}
	base, err := b.fixedRate("untraced", plain, span)
	if err != nil {
		return nil, nil, err
	}
	if err := b.stop(plain); err != nil {
		return nil, nil, err
	}

	spansPath := filepath.Join(b.work, "spans.txt")
	srv, err := b.start("tracedserver", append([]string{"-spans", spansPath}, b.w.ServerFlags...))
	if err != nil {
		return nil, nil, err
	}
	warmStart := b.offset
	warm, err := b.warmup(srv)
	if err != nil {
		return nil, nil, err
	}
	before, err := scrape(srv.metricsAddr)
	if err != nil {
		return nil, nil, err
	}
	first := b.offset
	m, err := b.fixedRate("traced", srv, span)
	if err != nil {
		return nil, nil, err
	}
	after, err := scrape(srv.metricsAddr)
	if err != nil {
		return nil, nil, err
	}
	if err := b.stop(srv); err != nil {
		return nil, nil, err
	}
	spans, err := readSpans(spansPath, m.t0.UnixNano(), m.t1.UnixNano())
	if err != nil {
		return nil, nil, err
	}

	res := m.res
	d := delta(before, after)
	reqs := float64(d.requests)
	// The server's own request count over the window must match the
	// client's verified completions: nothing else reached it.
	if d.requests != uint64(res.OK) {
		b.correct = false
	}
	per := func(n uint64) float64 { return float64(n) / reqs }
	ratio := func(n, base uint64) float64 {
		if base == 0 {
			return 0
		}
		return float64(n) / float64(base)
	}

	windowFiles := b.window(first, res.Offered)
	rp := b.replay(warmStart, first, windowFiles)

	cpu := m.quiet.serverUs()
	decodes, encodes := per(spans.decodes), per(spans.encodes)
	selfUs := (decodes*rp.decodeNs+encodes*rp.encodeNs+
		per(d.rcHits+d.rcMisses+d.rcStale)*rp.lookupNs+
		per(d.cacheHits+d.cacheMisses)*rp.getNs+per(d.cacheMisses)*rp.putNs+
		per(m.server.SysWrite)*rp.writevNs)/1e3 +
		per(d.diskReads)*rp.readUs + per(d.events)*rp.hopUs
	dials := append(append([]int64(nil), warm.res.Dials...), res.Dials...)

	mt := map[string]metric{
		"loadgen.late_ms_p99":     {ms(res.Quantile(0.99, openloop.Late)), "ms"},
		"loadgen.cpu_us_per_req":  {m.quiet.clientUs(), "us"},
		"loadgen.pipelined_share": {float64(res.Pipelined) / float64(res.Offered), "ratio"},

		"process.read_syscalls_per_req":  {per(m.server.SysRead), "count"},
		"process.write_syscalls_per_req": {per(m.server.SysWrite), "count"},
		"process.vcsw_per_req":           {per(m.server.VolCS), "count"},
		"process.ivcsw_per_req":          {per(m.server.InvolCS), "count"},
		"process.stime_share":            {ratio(m.server.SysTicks, m.server.UserTicks+m.server.SysTicks), "ratio"},

		"reactor.epoll_wakeups_per_req": {per(d.wakeups), "count"},
		"reactor.epoll_batch_mean":      {ratio(d.readyEvents, d.wakeups), "count"},
		"reactor.writev_ns":             {rp.writevNs, "ns"},

		"nserver.fastpath_share":     {per(d.direct), "ratio"},
		"nserver.parked_writes_peak": {float64(spans.parkedPeak), "count"},
		"nserver.flush_ms_p99":       {d.flushP99Ms, "ms"},

		"httpproto.decode_ns": {rp.decodeNs, "ns"},
		"httpproto.encode_ns": {rp.encodeNs, "ns"},

		"respcache.hit_ratio":             {ratio(d.rcHits, d.rcHits+d.rcMisses+d.rcStale), "ratio"},
		"respcache.lookup_ns":             {rp.lookupNs, "ns"},
		"respcache.invalidations_per_req": {per(d.rcInvalidations), "count"},

		"cache.hit_ratio":         {ratio(d.cacheHits, d.cacheHits+d.cacheMisses), "ratio"},
		"cache.evictions_per_req": {per(d.evictions), "count"},
		"cache.get_ns":            {rp.getNs, "ns"},
		"cache.put_ns":            {rp.putNs, "ns"},

		"aio.file_reads_per_req": {per(d.diskReads), "count"},
		"aio.collapsed_per_read": {ratio(d.collapsed, d.diskReads), "ratio"},
		"aio.read_us_p50":        {rp.readUs, "us"},

		"eventproc.events_per_req": {per(d.events), "count"},
		"eventproc.hop_us_p50":     {rp.hopUs, "us"},

		"acceptor.dial_us_p50":     {us(quantile(dials, 0.5)), "us"},
		"acceptor.accepts_per_req": {per(d.accepted), "count"},

		"process.unaccounted_us_per_req": {cpu - selfUs, "us"},
		"trace.overhead_pct":             {(cpu/base.quiet.serverUs() - 1) * 100, "%"},
	}
	detail := map[string]any{
		"counter_check": map[string]any{
			"nserver_requests_total_delta": d.requests, "client_ok": res.OK,
			"equal": d.requests == uint64(res.OK),
		},
		"bases": map[string]any{
			"requests": d.requests, "respcache_hits": d.rcHits, "respcache_stale": d.rcStale,
			"respcache_lookups": d.rcHits + d.rcMisses + d.rcStale,
			"cache_hits":        d.cacheHits, "cache_lookups": d.cacheHits + d.cacheMisses,
			"disk_reads": d.diskReads, "collapsed_reads": d.collapsed, "epoll_wakeups": d.wakeups,
			"direct_dispatched": d.direct, "accepts": d.accepted, "events_processed": d.events,
			"flushes": d.flushes, "pipelined": res.Pipelined, "offered": res.Offered,
			"server_cpu_ticks": m.server.UserTicks + m.server.SysTicks, "dials": len(dials),
		},
		"server_spans": map[string]any{
			"decodes_per_req": decodes, "encodes_per_req": encodes,
			"decode_ns_p50": spans.decodeP50, "encode_ns_p50": spans.encodeP50,
		},
		"client_spans_us_p50": map[string]float64{
			"scheduled_to_sent":  us(res.Quantile(0.5, openloop.Late)),
			"sent_to_first_byte": us(res.Quantile(0.5, func(s openloop.Sample) int64 { return s.First - s.Sent })),
			"first_to_last_byte": us(res.Quantile(0.5, func(s openloop.Sample) int64 { return s.Done - s.First })),
			"dial":               us(quantile(dials, 0.5)),
		},
		"untraced_cpu_us_per_req": base.quiet.serverUs(),
		"traced_cpu_us_per_req":   cpu,
		"layer_self_us_per_req":   selfUs,
		"replay":                  rp.report(),
	}
	return mt, detail, nil
}

// counters is the part of /metrics.json the benchmark reads, plus the
// flush-latency histogram from the Prometheus rendering.
type counters struct {
	requests, accepted, events, direct uint64
	wakeups, readyEvents               uint64
	rcHits, rcMisses, rcStale          uint64
	rcInvalidations                    uint64
	cacheHits, cacheMisses, evictions  uint64
	diskReads, collapsed               uint64
	flushBuckets                       map[float64]uint64 // le seconds → cumulative
	flushes                            uint64
	flushP99Ms                         float64
}

func scrape(addr string) (*counters, error) {
	get := func(path string) ([]byte, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	raw, err := get("/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	var p metrics.Payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if p.Server == nil {
		return nil, fmt.Errorf("scrape: profiling is off")
	}
	c := &counters{
		requests: p.Server.RequestsServed, accepted: p.Server.ConnectionsAccepted,
		events: p.Server.EventsProcessed, direct: p.Server.DirectDispatched,
		flushBuckets: map[float64]uint64{},
	}
	if p.Poll != nil {
		c.wakeups, c.readyEvents = p.Poll.Wakeups, p.Poll.Events
	}
	if p.RespCache != nil {
		c.rcHits, c.rcMisses, c.rcStale = p.RespCache.Hits, p.RespCache.Misses, p.RespCache.Stale
		c.rcInvalidations = p.RespCache.Invalidations
	}
	if p.Cache != nil {
		c.cacheHits, c.cacheMisses, c.evictions = p.Cache.Hits, p.Cache.Misses, p.Cache.Evict
	}
	if p.DiskReads != nil {
		c.diskReads = *p.DiskReads
	}
	if p.Collapsed != nil {
		c.collapsed = *p.Collapsed
	}
	text, err := get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	const prefix = `nserver_flush_duration_seconds_bucket{le="`
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, fmt.Errorf("scrape: %q: %w", line, err)
			}
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		c.flushBuckets[bound] = n
	}
	return c, nil
}

// delta returns b-a for every counter and the window's flush p99, read
// from the cumulative buckets. Empty buckets are left out of the
// rendering, so a missing bound carries the cumulative count of the
// largest bound below it.
func delta(a, b *counters) *counters {
	d := &counters{
		requests: b.requests - a.requests, accepted: b.accepted - a.accepted,
		events: b.events - a.events, direct: b.direct - a.direct,
		wakeups: b.wakeups - a.wakeups, readyEvents: b.readyEvents - a.readyEvents,
		rcHits: b.rcHits - a.rcHits, rcMisses: b.rcMisses - a.rcMisses, rcStale: b.rcStale - a.rcStale,
		rcInvalidations: b.rcInvalidations - a.rcInvalidations,
		cacheHits:       b.cacheHits - a.cacheHits, cacheMisses: b.cacheMisses - a.cacheMisses,
		evictions: b.evictions - a.evictions,
		diskReads: b.diskReads - a.diskReads, collapsed: b.collapsed - a.collapsed,
	}
	var bounds []float64
	for le := range b.flushBuckets {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cumAt := func(m map[float64]uint64, le float64) uint64 {
		var best float64 = -1
		var v uint64
		for k, n := range m {
			if k <= le && k > best {
				best, v = k, n
			}
		}
		return v
	}
	if len(bounds) > 0 {
		total := cumAt(b.flushBuckets, math.Inf(1)) - cumAt(a.flushBuckets, math.Inf(1))
		d.flushes = total
		for _, le := range bounds {
			if total > 0 && float64(cumAt(b.flushBuckets, le)-cumAt(a.flushBuckets, le)) >= 0.99*float64(total) {
				if !math.IsInf(le, 1) {
					d.flushP99Ms = le * 1e3
				}
				break
			}
		}
	}
	return d
}

// spanSummary is the server-side span record restricted to the window.
type spanSummary struct {
	decodes, encodes     uint64
	decodeP50, encodeP50 float64
	parkedPeak           int64
}

func readSpans(path string, from, to int64) (*spanSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s spanSummary
	var dec, enc []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 3 {
			return nil, fmt.Errorf("spans: bad line %q", sc.Text())
		}
		start, err1 := strconv.ParseInt(fs[1], 10, 64)
		v, err2 := strconv.ParseInt(fs[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("spans: bad line %q", sc.Text())
		}
		if start < from || start > to {
			continue
		}
		switch fs[0] {
		case "decode":
			dec = append(dec, v-start)
		case "encode":
			enc = append(enc, v-start)
		case "parked":
			if v > s.parkedPeak {
				s.parkedPeak = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s.decodes, s.encodes = uint64(len(dec)), uint64(len(enc))
	s.decodeP50, s.encodeP50 = float64(quantile(dec, 0.5)), float64(quantile(enc, 0.5))
	return &s, nil
}

// quantile is the nearest-rank q-quantile of v, 0 when empty.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
