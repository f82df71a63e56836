package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// job is one scheduled request. The dispatcher fills released, a worker
// the rest.
type job struct {
	id       int64         // traced run: request id sent in reqHeader
	due      time.Duration // offset from phase start when it should be sent
	keys     []int         // key-table indices: one for GET /relax, many for a batch
	reload   bool          // POST /admin/reload instead of a query
	released time.Duration // when the dispatcher handed it to a worker
	start    time.Duration // when a worker began sending it
	done     time.Duration // when its response was fully read
	failed   bool          // transport error, non-2xx, or malformed batch
	hashes   []uint64      // FNV-64a of each answer body (one per key)
	skipped  bool          // never sent: the phase was abandoned before its turn
	wrong    bool          // the answer check found a wrong answer in it
}

// sender performs one job against the system under test.
type sender func(ctx context.Context, j *job) error

// phase is the outcome of one open-loop phase.
type phase struct {
	rate      float64
	duration  time.Duration // schedule length
	jobs      []*job
	abandoned bool          // the backlog passed the give-up bound
	backlog   int           // jobs due but not yet started when the schedule ended
	elapsed   time.Duration // phase start to last completion
}

// runPhase drives jobs open-loop: a dispatcher wakes when the next job is
// due and releases every job that is due by then, so a wake-up that comes
// late delays the send but never the due time latency is measured from.
// conns workers (one connection each) take released jobs in order. When
// more than giveUp jobs are waiting the rest of the schedule is skipped:
// the rate is past capacity and continuing only prolongs the run.
func runPhase(send sender, jobs []*job, rate float64, duration time.Duration, conns, giveUp int) phase {
	queue := make(chan *job, len(jobs)) // sized to the number of sends
	var started atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if stop.Load() {
					j.skipped = true
					continue
				}
				started.Add(1)
				j.start = time.Since(t0)
				if err := send(context.Background(), j); err != nil {
					j.failed = true
				}
				j.done = time.Since(t0)
			}
		}()
	}
	ph := phase{rate: rate, duration: duration, jobs: jobs}
	released := 0
	for released < len(jobs) {
		now := time.Since(t0)
		for released < len(jobs) && jobs[released].due <= now {
			jobs[released].released = now
			queue <- jobs[released]
			released++
		}
		if int(int64(released)-started.Load()) > giveUp {
			ph.abandoned = true
			stop.Store(true)
			break
		}
		if released < len(jobs) {
			sleep(jobs[released].due - time.Since(t0))
		}
	}
	for _, j := range jobs[released:] {
		j.skipped = true
	}
	if wait := duration - time.Since(t0); wait > 0 && !ph.abandoned {
		time.Sleep(wait)
	}
	ph.backlog = int(int64(released) - started.Load())
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(t0)
	return ph
}

// sleep blocks the calling thread for d with nanosleep(2). A Go timer
// shorter than a millisecond waits in the runtime's poller, which rounds
// it up to a whole millisecond; that overshoot would count as lateness in
// every latency.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// sent returns the jobs that were actually sent, optionally only queries.
func (p phase) sent(queriesOnly bool) []*job {
	out := make([]*job, 0, len(p.jobs))
	for _, j := range p.jobs {
		if j.skipped || (queriesOnly && j.reload) {
			continue
		}
		out = append(out, j)
	}
	return out
}

// latencies returns due-to-done latencies in ms of the sent queries.
func (p phase) latencies() []float64 {
	var out []float64
	for _, j := range p.sent(true) {
		out = append(out, ms(j.done-j.due))
	}
	return out
}

// lateness returns release-minus-due in ms of every sent job: how late the
// generator itself ran.
func (p phase) lateness() []float64 {
	var out []float64
	for _, j := range p.sent(false) {
		out = append(out, ms(j.released-j.due))
	}
	return out
}

func (p phase) failures() int {
	n := 0
	for _, j := range p.sent(false) {
		if j.failed {
			n++
		}
	}
	return n
}

// poissonSchedule returns n due times of a Poisson arrival process at rate
// per second drawn from rnd, all before duration.
func poissonSchedule(rnd func() float64, rate float64, duration time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rnd() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= duration {
			return out
		}
		out = append(out, d)
	}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// conns is the generator's connection and worker budget: one per CPU.
func conns() int { return runtime.NumCPU() }

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// doWith sends one request, after decorate adjusts it, and returns status
// and body.
func doWith(ctx context.Context, client *http.Client, method, url string, body []byte, decorate func(*http.Request)) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if decorate != nil {
		decorate(req)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
