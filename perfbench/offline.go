package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"medrelax"
	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/persist"
)

// offline times the offline phase stage by stage, in-process, producing
// the same bundle medrelax -save -format flat (with -materialize -index for
// an accelerated workload) writes.
type offline struct {
	bundle string // the bundle the workload serves
	plain  string // the plain bundle: the live-path reference
	bytes  int64

	ingestS, indexS, materializeS float64
	saveS, openMs                 float64
	buildPeakMB                   float64
	matEntries, postings          float64
}

func runOffline(cfg runConfig) (*offline, error) {
	dir := filepath.Join(cfg.work, "offline")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o := &offline{plain: filepath.Join(dir, "plain.mrx")}
	mcfg := medrelax.DefaultConfig()
	start := time.Now()
	sys, err := medrelax.Build(mcfg)
	if err != nil {
		return nil, err
	}
	o.ingestS = time.Since(start).Seconds()
	ing := sys.Ingestion

	start = time.Now()
	if err := persist.SaveFileAtomic(o.plain, ing, persist.FormatFlat); err != nil {
		return nil, err
	}
	o.saveS = time.Since(start).Seconds()
	o.bundle = o.plain

	if cfg.w.accel {
		// The stages Ingest runs for -index and -materialize, in its order
		// and with the options the CLI passes.
		sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
		start = time.Now()
		ing.Candidates = core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{Enabled: true, Radius: mcfg.Relax.MaxRadius})
		o.indexS = time.Since(start).Seconds()
		start = time.Now()
		ing.Materialized = core.MaterializeTopK(ing, sim, core.MaterializeOptions{
			Enabled: true, Relax: mcfg.Relax, HeadFraction: 0.25, Contexts: ing.Contexts,
		})
		o.materializeS = time.Since(start).Seconds()
		o.matEntries = float64(ing.Materialized.Entries())
		o.postings = float64(ing.Candidates.Postings())
		o.buildPeakMB = peakRSSMB("self")

		o.bundle = filepath.Join(dir, "accel.mrx")
		start = time.Now()
		if err := persist.SaveFileAtomic(o.bundle, ing, persist.FormatFlat); err != nil {
			return nil, err
		}
		o.saveS = time.Since(start).Seconds()
	} else {
		o.buildPeakMB = peakRSSMB("self")
	}
	// The build is dead from here; return its heap before serving.
	runtime.GC()
	debug.FreeOSMemory()

	fi, err := os.Stat(o.bundle)
	if err != nil {
		return nil, err
	}
	o.bytes = fi.Size()
	start = time.Now()
	snap, err := engine.LoadSnapshot(o.bundle)
	if err != nil {
		return nil, err
	}
	o.openMs = float64(time.Since(start)) / 1e6
	return o, snap.Close()
}
