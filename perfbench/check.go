package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"medrelax/internal/engine"
)

// referenceBody is the exact body kbserver writes for a GET /relax answer,
// without the encoder's trailing newline (batch items embed it that way).
func referenceBody(snap *engine.Snapshot, k key) ([]byte, error) {
	results, err := snap.Relax(context.Background(), k.term, k.ctx, k.k)
	if err != nil {
		return nil, fmt.Errorf("reference relax %q/%q/%d: %w", k.term, k.ctx, k.k, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"term": k.term, "context": k.ctx, "results": results}); err != nil {
		return nil, err
	}
	return trimNewline(buf.Bytes()), nil
}

// checkResult summarises the answer check.
type checkResult struct {
	distinctKeys int // distinct keys answered in the timed window
	checkedKeys  int // keys recomputed in-process (all, or a seeded sample)
	checked      int // answers compared
	wrong        int // answers whose bytes differ from the reference
}

// checkAnswers recomputes each answered key on the reference snapshot and
// compares every answer of it byte for byte (by FNV-64a digest). With
// limit > 0 only a seeded sample of limit distinct keys is recomputed; all
// answers to those keys are still compared.
func checkAnswers(ref *engine.Snapshot, ks *keySource, jobs []*job, limit int, seed int64) (checkResult, error) {
	seen := map[int]bool{}
	for _, j := range jobs {
		if j.failed || j.reload {
			continue
		}
		for _, ki := range j.keys {
			seen[ki] = true
		}
	}
	keys := make([]int, 0, len(seen))
	for ki := range seen {
		keys = append(keys, ki)
	}
	sort.Ints(keys)
	res := checkResult{distinctKeys: len(keys)}
	if limit > 0 && len(keys) > limit {
		rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		keys = keys[:limit]
	}
	res.checkedKeys = len(keys)

	want := make(map[int]uint64, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan int, len(keys)) // sized to the number of sends
	for _, ki := range keys {
		work <- ki
	}
	close(work)
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ki := range work {
				b, err := referenceBody(ref, ks.keys[ki])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[ki] = fnv64(b)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}
	for _, j := range jobs {
		if j.failed || j.reload {
			continue
		}
		for i, ki := range j.keys {
			h, ok := want[ki]
			if !ok {
				continue
			}
			res.checked++
			if j.hashes[i] != h {
				res.wrong++
				j.wrong = true
			}
		}
	}
	return res, nil
}
