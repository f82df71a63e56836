package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/engine"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/serving/metrics"
	"medrelax/internal/trace"
)

// reqHeader carries the generator's request id through the router to the
// replicas in the traced run, so spans of one request can be joined.
const reqHeader = "X-Bench-Req"

type reqIDKey struct{}

func reqID(ctx context.Context) int64 {
	id, _ := ctx.Value(reqIDKey{}).(int64)
	return id
}

// span is one timed call at a layer boundary. Times are offsets from the
// recorder's start on the monotonic clock.
type span struct {
	layer    string // router, replica, serving, engine
	replica  int
	req      int64  // generator request id; 0 when the boundary cannot see it
	key      string // term, context and k of a single query
	start    time.Duration
	end      time.Duration
	endpoint string
	status   int
	inBytes  int
	outBytes int
	paths    []core.ServePath // engine: serve path of each answered item
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []*span
	// purged counts cache entries dropped by reloads, read just before
	// each reload swaps the bundle.
	purged atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(s *span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func queryKey(term, qctx string, k int) string {
	return term + "\x1f" + qctx + "\x1f" + strconv.Itoa(k)
}

// countingWriter records the status and body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// wrapHandler times every request through next as a span of layer.
func (r *recorder) wrapHandler(layer string, replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), reqIDKey{}, id)))
		r.add(&span{layer: layer, replica: replica, req: id, start: start, end: r.now(),
			endpoint: req.URL.Path, status: cw.status, inBytes: int(req.ContentLength), outBytes: cw.n})
	})
}

// servingSpy is the backend server.New receives: it times the serving
// engine (cache, singleflight, admission bookkeeping) from outside.
type servingSpy struct {
	e       *serving.Engine
	rec     *recorder
	replica int
}

func (s *servingSpy) Relax(ctx context.Context, term, qctx string, k int) ([]server.RelaxResult, error) {
	start := s.rec.now()
	out, err := s.e.Relax(ctx, term, qctx, k)
	s.rec.add(&span{layer: "serving", replica: s.replica, req: reqID(ctx), key: queryKey(term, qctx, k), start: start, end: s.rec.now()})
	return out, err
}

func (s *servingSpy) RelaxBatch(ctx context.Context, items []server.BatchItem) []server.BatchOutcome {
	start := s.rec.now()
	out := s.e.RelaxBatch(ctx, items)
	s.rec.add(&span{layer: "serving", replica: s.replica, req: reqID(ctx), start: start, end: s.rec.now()})
	return out
}

func (s *servingSpy) NewConversation() (*dialog.Conversation, error) { return s.e.NewConversation() }
func (s *servingSpy) Stats() map[string]any                          { return s.e.Stats() }
func (s *servingSpy) Terms(n int) []string                           { return s.e.Terms(n) }

// engineSpy is the backend serving.NewEngine receives: it times the
// engine snapshot (resolve, kernel, name resolution) from outside and
// records the serve path each answer took.
type engineSpy struct {
	s       *engine.Snapshot
	rec     *recorder
	replica int
}

func (e *engineSpy) Relax(ctx context.Context, term, qctx string, k int) ([]server.RelaxResult, error) {
	out, _, err := e.RelaxTraced(ctx, term, qctx, k)
	return out, err
}

func (e *engineSpy) RelaxTraced(ctx context.Context, term, qctx string, k int) ([]server.RelaxResult, core.ServePath, error) {
	start := e.rec.now()
	out, path, err := e.s.RelaxTraced(ctx, term, qctx, k)
	sp := &span{layer: "engine", replica: e.replica, req: reqID(ctx), key: queryKey(term, qctx, k), start: start, end: e.rec.now()}
	if err == nil {
		sp.paths = []core.ServePath{path}
	}
	e.rec.add(sp)
	return out, path, err
}

func (e *engineSpy) RelaxBatch(ctx context.Context, items []server.BatchItem) []server.BatchOutcome {
	start := e.rec.now()
	out := e.s.RelaxBatch(ctx, items)
	sp := &span{layer: "engine", replica: e.replica, req: reqID(ctx), start: start, end: e.rec.now()}
	for _, o := range out {
		if o.Err == nil {
			sp.paths = append(sp.paths, o.Path)
		}
	}
	e.rec.add(sp)
	return out
}

func (e *engineSpy) NewConversation() (*dialog.Conversation, error) { return e.s.NewConversation() }
func (e *engineSpy) Stats() map[string]any                          { return e.s.Stats() }
func (e *engineSpy) Terms(n int) []string                           { return e.s.Terms(n) }

// inproc is the serving stack assembled in this process from the public
// constructors kbserver and kbrouter use, with the same defaults. With a
// recorder every layer boundary is wrapped; without one nothing is.
type inproc struct {
	addrs    []string // replica addresses
	engines  []*serving.Engine
	handlers []http.Handler // replica handlers, as served
	servers  []*http.Server
	router   *router.Router
	base     string
}

// serve runs h on slot's loopback address (see listen) with kbserver's
// timeouts.
func serve(h http.Handler, slot int) (*http.Server, string, error) {
	l, err := listen(slot)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() { _ = srv.Serve(l) }()
	return srv, l.Addr().String(), nil
}

func buildInproc(w spec, bundle string, rec *recorder) (*inproc, error) {
	st := &inproc{}
	for i := 0; i < w.replicas; i++ {
		i := i
		load := func() (server.Backend, error) {
			snap, err := engine.LoadSnapshot(bundle)
			if err != nil {
				return nil, err
			}
			if rec == nil {
				return snap, nil
			}
			return &engineSpy{s: snap, rec: rec, replica: i}, nil
		}
		backend, err := load()
		if err != nil {
			return nil, err
		}
		opts := serving.DefaultOptions()
		opts.Tracer = trace.NewTracer("kbserver", 0, trace.NewRecorder(256, 16))
		var eng *serving.Engine
		opts.Loader = func() (server.Backend, error) {
			if rec != nil {
				_, _, _, entries := eng.CacheStats()
				rec.purged.Add(int64(entries))
			}
			return load()
		}
		eng = serving.NewEngine(backend, opts)
		var api http.Handler
		if rec == nil {
			api = server.New(eng).Handler()
		} else {
			api = server.New(&servingSpy{e: eng, rec: rec, replica: i}).Handler()
		}
		tenants := serving.NewTenantServer()
		tenants.Add("default", eng, api)
		h := tenants.Handler()
		if rec != nil {
			h = rec.wrapHandler("replica", i, h)
		}
		srv, addr, err := serve(h, i)
		if err != nil {
			return nil, err
		}
		st.engines = append(st.engines, eng)
		st.handlers = append(st.handlers, h)
		st.servers = append(st.servers, srv)
		st.addrs = append(st.addrs, addr)
	}
	st.base = "http://" + st.addrs[0]
	if w.routed {
		ropts := router.DefaultOptions()
		ropts.Replicas = st.addrs
		ropts.Tracer = trace.NewTracer("kbrouter", 0, trace.NewRecorder(256, 16))
		st.router = router.New(ropts)
		st.router.Start()
		h := st.router.Handler()
		if rec != nil {
			h = rec.wrapHandler("router", -1, h)
		}
		srv, addr, err := serve(h, w.replicas)
		if err != nil {
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.base = "http://" + addr
	}
	return st, nil
}

// close shuts every listener down and waits for in-flight requests.
func (st *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Shutdown(ctx)
	}
	if st.router != nil {
		st.router.Stop()
	}
}

// counter reads a serving counter summed over the stack's replicas.
func (st *inproc) counter(name string) float64 {
	total := 0.0
	for _, e := range st.engines {
		total += float64(e.Metrics().Counter(name, "", "").Value())
	}
	return total
}

func (st *inproc) cacheEntries() float64 {
	total := 0
	for _, e := range st.engines {
		_, _, _, n := e.CacheStats()
		total += n
	}
	return float64(total)
}

// routerRetries reads kbrouter's per-replica retry counters.
func (st *inproc) routerRetries() float64 {
	if st.router == nil {
		return 0
	}
	total := 0.0
	for _, rep := range st.addrs {
		total += float64(st.router.Registry().Counter("kbrouter_replica_retries_total", "", metrics.Label("replica", rep)).Value())
	}
	return total
}
