package main

import (
	"sort"
	"time"

	"repro/perfbench/openloop"
	"repro/perfbench/procstat"
)

// Each phase is cut into windows. The host this benchmark runs on may be
// a virtual machine whose CPUs the hypervisor takes away for a few
// milliseconds at a time ("steal" in /proc/stat); a window with steal
// shows a latency tail the program did not cause. A phase's figures are
// therefore taken over its quiet windows, and the steal that remained is
// reported beside them.
const window = 50 * time.Millisecond

// point is one reading of the server's and the client's CPU time and of
// the machine's stolen time.
type point struct {
	at             time.Time
	server, client uint64 // ns on a CPU
	steal          uint64 // clock ticks, all CPUs
}

// sample reads the counters every window until stop is closed, then
// sends the readings.
func sample(pid string, stop <-chan struct{}, out chan<- []point) {
	read := func(t time.Time) point {
		return point{at: t, server: procstat.RunNs(pid), client: procstat.RunNs("self"), steal: procstat.Steal()}
	}
	pts := []point{read(time.Now())}
	tk := time.NewTicker(window)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			out <- pts
			return
		case t := <-tk.C:
			pts = append(pts, read(t))
		}
	}
}

// win is one window of a phase: the arrivals due in it with a verified
// reply, the replies completed in it and the CPU time spent in it.
type win struct {
	steal              uint64
	due                []openloop.Sample
	done               int
	serverNs, clientNs uint64
}

// windows splits a phase at the readings.
func windows(res *openloop.Result, pts []point) []win {
	due := append([]openloop.Sample(nil), res.Samples...)
	sort.Slice(due, func(i, j int) bool { return due[i].Due < due[j].Due })
	done := make([]int64, len(res.Samples))
	for i, s := range res.Samples {
		done[i] = s.Done
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	rel := func(t time.Time) int64 { return t.Sub(res.Start).Nanoseconds() }
	var ws []win
	for i := 1; i < len(pts); i++ {
		from, to := rel(pts[i-1].at), rel(pts[i].at)
		a := sort.Search(len(due), func(k int) bool { return due[k].Due >= from })
		b := sort.Search(len(due), func(k int) bool { return due[k].Due >= to })
		c := sort.Search(len(done), func(k int) bool { return done[k] >= from })
		d := sort.Search(len(done), func(k int) bool { return done[k] >= to })
		ws = append(ws, win{
			steal:    pts[i].steal - pts[i-1].steal,
			due:      due[a:b],
			done:     d - c,
			serverNs: pts[i].server - pts[i-1].server,
			clientNs: pts[i].client - pts[i-1].client,
		})
	}
	return ws
}

// quiet keeps the windows in which at least min arrivals were due and
// verified, which leaves out the drain at a phase's end, and of those the
// ones with no more steal than the quietest quarter has: on a quiet host
// that is nearly every window, in a storm the calmest quarter. It falls
// back to every window when none is that full.
func quiet(ws []win, min int) []win {
	var full []win
	var steal []uint64
	for _, w := range ws {
		if len(w.due) >= min {
			full = append(full, w)
			steal = append(steal, w.steal)
		}
	}
	if len(full) == 0 {
		return ws
	}
	sort.Slice(steal, func(i, j int) bool { return steal[i] < steal[j] })
	limit := steal[(len(steal)-1)/4]
	var q []win
	for _, w := range full {
		if w.steal <= limit {
			q = append(q, w)
		}
	}
	return q
}

// stats is a phase's figures over its quiet windows taken together.
type stats struct {
	samples            []openloop.Sample
	done               int
	serverNs, clientNs uint64
	steal              uint64
}

func pool(ws []win) *stats {
	st := &stats{}
	for _, w := range ws {
		st.samples = append(st.samples, w.due...)
		st.done += w.done
		st.serverNs += w.serverNs
		st.clientNs += w.clientNs
		st.steal += w.steal
	}
	return st
}

func (st *stats) latency(q float64) float64 {
	return ms(openloop.Quantile(st.samples, q, openloop.Latency))
}
func (st *stats) service(q float64) float64 {
	return us(openloop.Quantile(st.samples, q, openloop.Service))
}

// serverUs and clientUs are CPU microseconds per completed reply.
func (st *stats) serverUs() float64 { return perReply(st.serverNs, st.done) }
func (st *stats) clientUs() float64 { return perReply(st.clientNs, st.done) }

func perReply(ns uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}
