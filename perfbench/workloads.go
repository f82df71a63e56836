package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"medrelax"
)

// spec is one workload: how the system is set up and what traffic it gets.
// Rates are requests per second; for routed a request is one batch.
type spec struct {
	name     string
	accel    bool // bundle built with -materialize -index
	replicas int  // kbserver processes
	routed   bool // kbrouter in front of the replicas
	batch    int  // items per POST /relax/batch; 0 sends GET /relax
	// refRate is the fixed reference rate p50_ms and p99_ms are taken at.
	refRate float64
	// The rate ladder for max_rate_rps runs from ladderLo to ladderHi in
	// steps of ladderStep (see ladder).
	ladderLo, ladderHi float64
	// p99LimitMs and errLimit define a passing rate.
	p99LimitMs float64
	// reloadEvery > 0 adds a reload phase of two periods at reloadRate
	// after the reference phase, with a POST /admin/reload through the
	// router half-way through each period. Each reload purges the caches,
	// so a miss burst follows it.
	reloadEvery time.Duration
	reloadRate  float64
	// setups is how many times setup runs per invocation (setup_s is their
	// median); checkMax caps how many distinct keys the answer check
	// recomputes (0: all).
	setups   int
	checkMax int
}

// errLimit is the share of failed requests a passing rate may have.
const errLimit = 0.001

var specs = map[string]spec{
	// hot: Zipf-skewed repeats, so after warm-up the cache answers nearly
	// everything and the kernel idles.
	"hot": {
		name: "hot", replicas: 1,
		refRate: 4000, ladderLo: 6000, ladderHi: 24000,
		p99LimitMs: 25,
		setups:     3,
	},
	// sweep: every key distinct and more keys than the cache holds, so
	// every request misses into the materialized or indexed kernel path.
	"sweep": {
		name: "sweep", accel: true, replicas: 1,
		refRate: 600, ladderLo: 800, ladderHi: 3200,
		p99LimitMs: 50,
		setups:     1, checkMax: 1000,
	},
	// routed: the hot key mix in batches through the router, with a
	// reload that purges both replicas' caches every 1.2 s.
	"routed": {
		name: "routed", replicas: 2, routed: true, batch: 16,
		refRate: 400, ladderLo: 400, ladderHi: 1600,
		p99LimitMs:  50,
		reloadEvery: 1200 * time.Millisecond, reloadRate: 100, setups: 3,
	},
}

// key is one relax query.
type key struct {
	term, ctx string
	k         int
	query     string // URL-encoded query string of GET /relax
}

func newKey(term, ctx string, k int) key {
	v := url.Values{}
	v.Set("term", term)
	v.Set("context", ctx)
	v.Set("k", strconv.Itoa(k))
	return key{term: term, ctx: ctx, k: k, query: v.Encode()}
}

// keySource generates each job's keys from the workload seed.
type keySource struct {
	keys []key
	next func() []int
}

// popularitySeed fixes the Zipf rank order of the hot and routed keys.
const popularitySeed = 1

// newKeySource builds the key table and sampler. hot and routed draw Zipf
// (s=1.2) over terms x {Indication, Risk} at k=10 in a fixed rank order;
// sweep walks a seeded permutation of terms x finding contexts x k in
// {5,10,20,50} and never repeats a key.
func newKeySource(w spec, terms, findingCtxs []string, seed int64) (*keySource, error) {
	rng := rand.New(rand.NewSource(seed))
	ks := &keySource{}
	if w.name == "sweep" {
		for _, t := range terms {
			for _, c := range findingCtxs {
				for _, k := range []int{5, 10, 20, 50} {
					ks.keys = append(ks.keys, newKey(t, c, k))
				}
			}
		}
		rng.Shuffle(len(ks.keys), func(i, j int) { ks.keys[i], ks.keys[j] = ks.keys[j], ks.keys[i] })
		cursor := 0
		ks.next = func() []int {
			if cursor == len(ks.keys) {
				return nil
			}
			cursor++
			return []int{cursor - 1}
		}
		return ks, nil
	}
	for _, t := range terms {
		for _, c := range []string{medrelax.ContextIndication, medrelax.ContextRisk} {
			ks.keys = append(ks.keys, newKey(t, c, 10))
		}
	}
	if len(ks.keys) < 2 {
		return nil, fmt.Errorf("only %d servable keys", len(ks.keys))
	}
	// Popularity is a fixed property of the workload, as it is of real
	// terms: the rank order comes from a constant, and the seed draws the
	// requests. A seeded order would change which answers are hot, and
	// with them the bytes each hit encodes, from seed to seed.
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(ks.keys), func(i, j int) { ks.keys[i], ks.keys[j] = ks.keys[j], ks.keys[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(ks.keys)-1))
	n := 1
	if w.batch > 0 {
		n = w.batch
	}
	ks.next = func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(zipf.Uint64())
		}
		return out
	}
	return ks, nil
}

// ladderStep is the ratio between neighbouring ladder rates: the
// staircase's step once it has reversed.
const ladderStep = 1.05

// ladder returns the workload's fixed rate ladder.
func (w spec) ladder() []float64 {
	var out []float64
	for r := w.ladderLo; r <= w.ladderHi*1.0001; r *= ladderStep {
		out = append(out, r)
	}
	return out
}

// scheduleJobs schedules Poisson arrivals at rate over d, plus a reload
// half-way through every reloadEvery when that is positive. It returns nil
// if the key source ran dry.
func scheduleJobs(ks *keySource, rnd *rand.Rand, rate float64, d, reloadEvery time.Duration) []*job {
	var jobs []*job
	nextReload := reloadEvery / 2
	for _, due := range poissonSchedule(rnd.ExpFloat64, rate, d) {
		for reloadEvery > 0 && due >= nextReload {
			jobs = append(jobs, &job{due: nextReload, reload: true})
			nextReload += reloadEvery
		}
		keys := ks.next()
		if keys == nil {
			return nil
		}
		jobs = append(jobs, &job{due: due, keys: keys})
	}
	return jobs
}

// batchRequest mirrors POST /relax/batch.
type batchRequest struct {
	Queries []batchItem `json:"queries"`
}

type batchItem struct {
	Term    string `json:"term"`
	Context string `json:"context"`
	K       int    `json:"k"`
}

type batchResponse struct {
	Items []struct {
		Status int             `json:"status"`
		Body   json.RawMessage `json:"body"`
	} `json:"items"`
}

// newSender returns the sender for w against base. header, when set, is
// added to every request (the traced run tags requests with it).
func newSender(w spec, ks *keySource, client *http.Client, base string, header func(*http.Request, *job)) sender {
	return func(ctx context.Context, j *job) error {
		var (
			method = http.MethodGet
			target string
			body   []byte
		)
		switch {
		case j.reload:
			method, target = http.MethodPost, base+"/admin/reload"
		case w.batch > 0:
			req := batchRequest{Queries: make([]batchItem, len(j.keys))}
			for i, ki := range j.keys {
				k := ks.keys[ki]
				req.Queries[i] = batchItem{Term: k.term, Context: k.ctx, K: k.k}
			}
			b, err := json.Marshal(req)
			if err != nil {
				return err
			}
			method, target, body = http.MethodPost, base+"/relax/batch", b
		default:
			target = base + "/relax?" + ks.keys[j.keys[0]].query
		}
		status, resp, err := doWith(ctx, client, method, target, body, func(r *http.Request) {
			if header != nil {
				header(r, j)
			}
		})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		switch {
		case j.reload:
		case w.batch > 0:
			var br batchResponse
			if err := json.Unmarshal(resp, &br); err != nil {
				return err
			}
			if len(br.Items) != len(j.keys) {
				return fmt.Errorf("batch answered %d of %d items", len(br.Items), len(j.keys))
			}
			j.hashes = make([]uint64, len(br.Items))
			for i, it := range br.Items {
				j.hashes[i] = fnv64(it.Body)
				if it.Status != http.StatusOK {
					return fmt.Errorf("batch item status %d", it.Status)
				}
			}
		default:
			j.hashes = []uint64{fnv64(trimNewline(resp))}
		}
		return nil
	}
}

func trimNewline(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}
