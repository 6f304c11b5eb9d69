package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aggcache/internal/mtier"
)

// sessionLog is what one closed-loop session keeps: a fingerprint of every
// answer (warm-up included, in stream order) and the round-trip time and
// completion time (since the window opened) of every query issued in the
// measured window. Both are preallocated before set-up
// so the benchmark's own bookkeeping neither allocates in the window nor
// scales the measured heap with throughput. fpTime is the time the session
// spent fingerprinting window answers: the benchmark's own CPU inside the
// closed loop.
type sessionLog struct {
	fps    []fingerprint
	rtt    []time.Duration
	at     []time.Duration
	fpTime time.Duration
}

// logCap is the preallocated per-session capacity; a longer run grows the
// slices, which only costs the benchmark an allocation.
const logCap = 1 << 16

func newSessionLogs(n int) []*sessionLog {
	logs := make([]*sessionLog, n)
	for i := range logs {
		logs[i] = &sessionLog{
			fps: make([]fingerprint, 0, logCap),
			rtt: make([]time.Duration, 0, logCap),
			at:  make([]time.Duration, 0, logCap),
		}
	}
	return logs
}

// loop describes one closed-loop drive: every session issues its next query
// only after the previous answer arrived, first warmup queries, then either
// for window or for limit queries each (limit > 0 wins).
type loop struct {
	addr    string
	streams []stream
	logs    []*sessionLog
	warmup  int
	window  time.Duration
	limit   int
	// rec, in a traced run, observes each window query.
	rec *recorder
	// atStart and atEnd run on the driving goroutine with every session
	// idle: after all warm-ups, and after the last window answer.
	atStart, atEnd func()
}

// sliceLen is the length of the slices a timed window is cut into; the
// rates reported are medians over whole slices, so a burst of interference
// on a shared machine moves a few slices rather than the result.
const sliceLen = time.Second

// slice is the work completed in one slice of the window.
type slice struct {
	queries  int64
	dur, cpu time.Duration
}

// loopResult is the measured window.
type loopResult struct {
	wall    time.Duration // window open to the last answer
	queries int           // queries issued in the window
	cpu     time.Duration // process user+sys CPU over the window
	slices  []slice       // whole slices of a timed window
}

// medianQPS is the median over slices of queries completed per second.
func (r loopResult) medianQPS() float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = float64(s.queries) / s.dur.Seconds()
	}
	return median(xs)
}

// medianCPUPerQuery is the median over slices of process CPU per completed
// query, in milliseconds.
func (r loopResult) medianCPUPerQuery() float64 {
	var xs []float64
	for _, s := range r.slices {
		if s.queries > 0 {
			xs = append(xs, ms(s.cpu)/float64(s.queries))
		}
	}
	return median(xs)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the sessions. Each session owns one mtier connection.
func (l *loop) run() (loopResult, error) {
	clients := make([]*mtier.Client, len(l.streams))
	for i := range clients {
		c, err := mtier.Dial(l.addr)
		if err != nil {
			for _, o := range clients[:i] {
				o.Close()
			}
			return loopResult{}, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var warm, done sync.WaitGroup
	var completed atomic.Int64
	open := make(chan struct{})
	var start, deadline time.Time
	for i := range l.streams {
		warm.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			c, st, log := clients[i], l.streams[i], l.logs[i]
			for k := 0; k < l.warmup; k++ {
				text, _ := st.next()
				fp, _, _ := ask(c, text, nil)
				log.fps = append(log.fps, fp)
			}
			warm.Done()
			<-open
			for k := 0; ; k++ {
				if l.limit > 0 && k >= l.limit || l.limit <= 0 && !time.Now().Before(deadline) {
					return
				}
				text, _ := st.next()
				fp, rtt, fpd := ask(c, text, l.rec)
				log.rtt = append(log.rtt, rtt)
				log.at = append(log.at, time.Since(start))
				log.fpTime += fpd
				log.fps = append(log.fps, fp)
				completed.Add(1)
			}
		}(i)
	}
	warm.Wait()
	if l.atStart != nil {
		l.atStart()
	}
	cpu0 := cpuTime()
	start = time.Now()
	deadline = start.Add(l.window)
	close(open)

	// Sample the completed count and the CPU clock at every slice boundary
	// until the sessions are done.
	finished := make(chan struct{})
	go func() {
		done.Wait()
		close(finished)
	}()
	var res loopResult
	if l.limit <= 0 {
		tick := time.NewTicker(sliceLen)
		lastQ, lastCPU, lastT := int64(0), cpu0, start
	sampling:
		for {
			select {
			case t := <-tick.C:
				q, c := completed.Load(), cpuTime()
				if !t.After(deadline.Add(sliceLen / 2)) {
					res.slices = append(res.slices, slice{queries: q - lastQ, dur: t.Sub(lastT), cpu: c - lastCPU})
				}
				lastQ, lastCPU, lastT = q, c, t
			case <-finished:
				break sampling
			}
		}
		tick.Stop()
	} else {
		<-finished
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if l.atEnd != nil {
		l.atEnd()
	}
	for _, log := range l.logs {
		res.queries += len(log.rtt)
	}
	if res.queries == 0 {
		return res, fmt.Errorf("no query completed in the window")
	}
	if l.limit <= 0 && len(res.slices) == 0 {
		return res, fmt.Errorf("window shorter than one %v slice", sliceLen)
	}
	return res, nil
}

// ask runs one query, returning its answer's fingerprint, its round-trip
// time and the time taken to fingerprint the answer. The recorder, if any,
// runs outside the timed round trip.
func ask(c *mtier.Client, text string, rec *recorder) (fingerprint, time.Duration, time.Duration) {
	if rec != nil {
		rec.before(text)
	}
	t0 := time.Now()
	resp, err := c.Query(text)
	rtt := time.Since(t0)
	if rec != nil {
		rec.after(resp)
	}
	if err != nil {
		return fingerprint{failed: true}, rtt, 0
	}
	t1 := time.Now()
	fp := fingerprintResponse(resp)
	return fp, rtt, time.Since(t1)
}
