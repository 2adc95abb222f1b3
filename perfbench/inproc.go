package main

// The traced run: the same topology as the real processes, assembled in
// one process from the packages' public constructors (as the root
// package's livewire and cluster tests do), with every call across a
// layer boundary that the benchmark can wrap timed into a per-lane span
// log. A lane is one closed-loop connection; each lane gets its own
// listener, interceptor and collector over the shared engine, cache and
// store, so that a child span is attributed to its caller by lane and
// containment alone.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tlsfof/internal/analysis"
	"tlsfof/internal/chaincache"
	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
)

// tracer keeps spans in memory, per lane and layer boundary, until the
// run ends.
type tracer struct {
	epoch time.Time
	lanes []*laneLog
	mu    sync.Mutex
	other map[string][]span // spans with no lane (table reads, merges)
}

type laneLog struct {
	mu    sync.Mutex
	spans map[string][]span
}

func newTracer(lanes int) *tracer {
	t := &tracer{epoch: time.Now(), other: make(map[string][]span)}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &laneLog{spans: make(map[string][]span)})
	}
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span on lane, or on no lane when lane < 0.
func (t *tracer) add(lane int, name string, start time.Duration) {
	s := span{start: start, end: t.now()}
	if lane < 0 {
		t.mu.Lock()
		t.other[name] = append(t.other[name], s)
		t.mu.Unlock()
		return
	}
	l := t.lanes[lane]
	l.mu.Lock()
	l.spans[name] = append(l.spans[name], s)
	l.mu.Unlock()
}

// all returns the spans of name over every lane and the laneless log.
func (t *tracer) all(name string) []span {
	var out []span
	for _, l := range t.lanes {
		l.mu.Lock()
		out = append(out, l.spans[name]...)
		l.mu.Unlock()
	}
	t.mu.Lock()
	out = append(out, t.other[name]...)
	t.mu.Unlock()
	return out
}

// selfTimes attributes child spans to parent spans lane by lane and
// returns every parent's self time.
func (t *tracer) selfTimes(parent, child string) []time.Duration {
	var out []time.Duration
	for _, l := range t.lanes {
		l.mu.Lock()
		out = append(out, attribute(l.spans[parent], l.spans[child])...)
		l.mu.Unlock()
	}
	return out
}

// timedSink wraps the collector's Sink (the pipeline, or a cluster node)
// so every measurement's hand-off is a span on the lane.
type timedSink struct {
	t    *tracer
	lane int
	next core.Sink
}

func (s timedSink) Ingest(m core.Measurement) {
	start := s.t.now()
	s.next.Ingest(m)
	s.t.add(s.lane, "ingest.sink", start)
}

// timedHandler times one lane's batch handler.
func timedHandler(t *tracer, lane int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(lane, "ingest.handler", start)
	})
}

// sharedCollector is what one reportd's lanes share: classifier, geo
// database, observation memo, authoritative chains and reportd's
// always-on stage tracer.
type sharedCollector struct {
	cl     *classify.Classifier
	geo    *geo.DB
	cache  *core.ObservationCache
	refs   map[string][][]byte
	tracer *telemetry.Tracer
}

func newSharedCollector(refs map[string][][]byte, tracer *telemetry.Tracer) sharedCollector {
	return sharedCollector{
		cl:     classify.NewClassifier(),
		geo:    geo.NewDB(),
		cache:  core.NewObservationCache(chaincache.DefaultCap, 0), // reportd's default -obs-cache
		refs:   refs,
		tracer: tracer,
	}
}

// laneCollector builds one lane's collector over the shared sink and
// observation memo, registered with every authoritative chain — reportd's
// collector, one per lane.
func (sc sharedCollector) laneCollector(t *tracer, lane int, sink core.Sink) *core.Collector {
	col := core.NewCollector(sc.cl, sc.geo, timedSink{t: t, lane: lane, next: sink})
	col.Campaign = "manual" // reportd's default -campaign
	col.Cache = sc.cache
	col.Tracer = sc.tracer
	for h, chain := range sc.refs {
		col.SetAuthoritative(h, chain)
	}
	return col
}

// lanePath is the batch endpoint of lane i.
func lanePath(i int) string { return fmt.Sprintf("/ingest/batch/%d", i) }

// serveMux serves mux on a fresh loopback listener.
func serveMux(mux http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// inprocReportd is standalone reportd -data-dir in one process: the
// durable pipeline with reportd's default settings behind one collector
// per lane, with reportd's telemetry registry and stage tracer wired in
// as it wires them (collector, pipeline, pipeline metrics).
type inprocReportd struct {
	t        *tracer
	pipeline *ingest.Pipeline
	cache    *core.ObservationCache
	srv      *http.Server
	url      string
}

func startInprocReportd(t *tracer, lanes int, refs map[string][][]byte, dataDir string) (*inprocReportd, error) {
	reg := telemetry.NewRegistry()
	stages := telemetry.NewTracer(reg, 0)
	p, _, err := ingest.OpenPipeline(ingest.Config{
		Shards:     4,
		BatchSize:  ingest.DefaultBatchSize,
		QueueDepth: 64,
		Block:      true,
		WALDir:     dataDir,
		Tracer:     stages,
	})
	if err != nil {
		return nil, err
	}
	p.MountMetrics(reg)
	sc := newSharedCollector(refs, stages)
	r := &inprocReportd{t: t, pipeline: p, cache: sc.cache}
	mux := http.NewServeMux()
	for i := 0; i < lanes; i++ {
		col := sc.laneCollector(t, i, p)
		mux.Handle(lanePath(i), timedHandler(t, i, ingest.BatchHandler(col)))
	}
	mountTables(mux, t, func() *store.DB {
		start := t.now()
		p.Drain()
		t.add(-1, "ingest.drain", start)
		start = t.now()
		db := p.Merge(0)
		t.add(-1, "store.merge", start)
		return db
	})
	srv, url, err := serveMux(mux)
	if err != nil {
		p.Close()
		return nil, err
	}
	r.srv, r.url = srv, url
	return r, nil
}

func (r *inprocReportd) close() error {
	r.srv.Close()
	r.pipeline.Drain()
	return r.pipeline.Close()
}

// tableRenders are the reportd table endpoints the benchmark reads and
// checks, rendered as reportd renders them.
var tableRenders = map[string]func(io.Writer, *store.DB) error{
	"/table/4":          func(w io.Writer, db *store.DB) error { return analysis.Table4(w, db, 25) },
	"/table/products":   func(w io.Writer, db *store.DB) error { return analysis.Products(w, db, 25) },
	"/table/negligence": analysis.Negligence,
}

// mountTables serves the checked table endpoints over snapshot, as
// reportd does, timing each render.
func mountTables(mux *http.ServeMux, t *tracer, snapshot func() *store.DB) {
	for path, render := range tableRenders {
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			db := snapshot()
			start := t.now()
			err := render(w, db)
			t.add(-1, "analysis.render", start)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
}

// inprocCluster is three reportd -cluster-id nodes in one process, each
// serving the node's control and replication surface plus one routed
// batch endpoint per lane, as reportd mounts them in cluster mode, with
// the node's registry feeding reportd's stage tracer.
type inprocCluster struct {
	t      *tracer
	nodes  []*cluster.Node
	regs   []*telemetry.Registry
	caches []*core.ObservationCache
	srvs   []*http.Server
	urls   []string
}

func startInprocCluster(t *tracer, lanes int, refs map[string][][]byte, dataDir string, ids []string) (*inprocCluster, error) {
	c := &inprocCluster{t: t}
	var members []cluster.Member
	var lns []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		members = append(members, cluster.Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	for i, id := range ids {
		reg := telemetry.NewRegistry()
		n, err := cluster.Open(cluster.Config{
			ID:       id,
			Members:  members,
			DataDir:  filepath.Join(dataDir, id),
			Shards:   4, // reportd's default -shards
			Registry: reg,
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			c.close()
			return nil, err
		}
		n.Start()
		sc := newSharedCollector(refs, telemetry.NewTracer(reg, 0))
		c.caches = append(c.caches, sc.cache)
		router := ingest.Router{
			Owns: func(host string) bool {
				owned, _ := n.Owns(host)
				return owned
			},
			Owner: func(host string) (string, string) {
				_, owner := n.Owns(host)
				return owner.ID, owner.URL
			},
		}
		mux := http.NewServeMux()
		for l := 0; l < lanes; l++ {
			col := sc.laneCollector(t, l, n)
			mux.Handle(lanePath(l), timedHandler(t, l, ingest.RoutedBatchHandler(col, router)))
		}
		mountTables(mux, t, func() *store.DB {
			start := t.now()
			db := n.MergeLocal()
			t.add(-1, "store.merge", start)
			return db
		})
		nh := n.Handler()
		mux.Handle("/cluster/", nh)
		mux.Handle("/repl/", nh)
		srv := &http.Server{Handler: mux}
		go srv.Serve(lns[i])
		c.nodes = append(c.nodes, n)
		c.regs = append(c.regs, reg)
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, members[i].URL)
	}
	return c, nil
}

func (c *inprocCluster) close() error {
	var err error
	for _, s := range c.srvs {
		s.Close()
	}
	for _, n := range c.nodes {
		if e := n.Close(); err == nil {
			err = e
		}
	}
	return err
}

// counter sums a registry counter over every node.
func (c *inprocCluster) counter(name string) float64 {
	var v float64
	for _, reg := range c.regs {
		v += float64(reg.Counter(name, "").Value())
	}
	return v
}

// inprocMitm is mitmd in one process: one engine and forge cache shared
// by a listener and interceptor per lane. Each interceptor dials the
// origin through a wrapper that records the upstream span from dial to
// close.
type inprocMitm struct {
	t      *tracer
	engine *proxyengine.Engine
	lns    []net.Listener
	addrs  []string
	wg     sync.WaitGroup
}

func startInprocMitm(t *tracer, lanes int, engine *proxyengine.Engine, upstream string) (*inprocMitm, error) {
	m := &inprocMitm{t: t, engine: engine}
	for i := 0; i < lanes; i++ {
		lane := i
		ic := proxyengine.NewInterceptor(engine, func(string) (net.Conn, error) {
			start := t.now()
			c, err := net.Dial("tcp", upstream)
			if err != nil {
				t.add(lane, "proxyengine.upstream", start)
				return nil, err
			}
			return &spanConn{Conn: c, t: t, lane: lane, start: start}, nil
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.close()
			return nil, err
		}
		m.lns = append(m.lns, ln)
		m.addrs = append(m.addrs, ln.Addr().String())
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.serve(ln, ic, lane)
		}()
	}
	return m, nil
}

// serve is mitmd's accept loop: a connection deadline, then HandleConn,
// timed.
func (m *inprocMitm) serve(ln net.Listener, ic *proxyengine.Interceptor, lane int) {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second)) // mitmd's -conn-timeout default
			start := m.t.now()
			ic.HandleConn(conn)
			m.t.add(lane, "proxyengine.conn", start)
		}()
	}
}

func (m *inprocMitm) close() {
	for _, ln := range m.lns {
		ln.Close()
	}
	m.wg.Wait()
}

// spanConn ends its upstream span when the interceptor closes it.
type spanConn struct {
	net.Conn
	t     *tracer
	lane  int
	start time.Duration
	once  sync.Once
}

func (c *spanConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.t.add(c.lane, "proxyengine.upstream", c.start) })
	return err
}

// startOrigin serves chains by SNI on loopback, as examples/live-wire's
// origin does.
func startOrigin(chains map[string][][]byte) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go tlswire.Server(ln, tlswire.ResponderConfig{
		Chain: func(sni string) ([][]byte, error) {
			chain, ok := chains[sni]
			if !ok {
				return nil, fmt.Errorf("no chain for %q", sni)
			}
			return chain, nil
		},
	}, nil)
	return ln, nil
}
