package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/ingest"
	"tlsfof/internal/store"
)

// defaultTableEvery is the flood workloads' read ratio: every
// defaultTableEvery-th operation of a connection is a table read instead
// of a batch upload. Neither the paper nor the repository gives a
// dashboard's read cadence, so the ratio is an assumption; the
// -table-every flag changes it (0 turns reads off) to separate ingest
// cost from read cost.
const defaultTableEvery = 16

// floodTables are the tables one read operation fetches, one after the
// other.
var floodTables = []string{"/table/4", "/table/products"}

// timedReads is how many table reads per connection are timed. A read's
// cost grows with the data reportd holds, and the k-th read of a
// connection always follows the same stretch of the seeded stream, so
// timing only the first reads compares equal store sizes however fast
// the program ingests.
const timedReads = 24

// clusterIDs are the member IDs of the cluster workloads' three reportd
// nodes.
var clusterIDs = []string{"n1", "n2", "n3"}

// floodMode is how a flood workload's batches reach reportd.
type floodMode struct {
	// clustered runs three reportd cluster nodes instead of one
	// standalone reportd.
	clustered bool
	// byOwner splits every batch by ring owner and posts each part to
	// its owner; otherwise whole batches go round-robin over the nodes.
	byOwner bool
}

// floodTopo is one or three reportd processes.
type floodTopo struct {
	g    group
	urls []string // node base URLs, in round-robin order
}

// setupFlood starts reportd with only -listen, -refdir and -data-dir
// (plus -cluster-id/-cluster-peers for the cluster) and waits until every
// node answers. It returns the topology and the set-up time. The world's
// chains are the workload's generated inputs, minted once per run before
// set-up.
func setupFlood(c *runCtx, w *world, mode floodMode) (*floodTopo, time.Duration, error) {
	t0 := time.Now()
	d, err := c.dir("flood")
	if err != nil {
		return nil, 0, err
	}
	refdir := filepath.Join(d, "refs")
	if err := w.writeRefdir(refdir); err != nil {
		return nil, 0, err
	}
	n := 1
	if mode.clustered {
		n = len(clusterIDs)
	}
	t := &floodTopo{}
	var peers []string
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		t.urls = append(t.urls, "http://"+addr)
		if mode.clustered {
			peers = append(peers, clusterIDs[i]+"="+t.urls[i])
		}
	}
	for i, u := range t.urls {
		args := []string{"-listen", strings.TrimPrefix(u, "http://"), "-refdir", refdir,
			"-data-dir", filepath.Join(d, fmt.Sprintf("data-%d", i))}
		if mode.clustered {
			args = append(args, "-cluster-id", clusterIDs[i], "-cluster-peers", strings.Join(peers, ","))
		}
		p, err := spawn(c.bin, d, "reportd", args...)
		if err != nil {
			t.g.stop()
			return nil, 0, err
		}
		t.g = append(t.g, p)
	}
	for i, p := range t.g {
		if err := waitReady(p, "/stats", httpUp(t.urls[i]+"/stats")); err != nil {
			t.g.stop()
			return nil, 0, err
		}
	}
	return t, time.Since(t0), nil
}

// floodRun is one flood pass's client-side accounting.
type floodRun struct {
	load     loadResult
	clients  []ingest.ClientStats
	acked    [][]ackedPost // per connection, the posts the server acknowledged
	posts    int64
	refusedB int64
	failedB  int64
	badReads int
	badWhy   string
}

// ackedPost names an acknowledged post: batch b of its connection, whole
// (part < 0) or only the reports node part owns.
type ackedPost struct{ b, part int }

// ownerIndex maps every study host to the index, among members, of the
// cluster node that owns it, on the ring the nodes build from the same
// member list.
func ownerIndex(hosts []string, members []cluster.Member) (map[string]int, error) {
	ms, err := cluster.NewMembership(members, 0) // reportd passes no vnode count
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(hosts))
	for _, h := range hosts {
		m, ok := ms.Owner(h)
		if !ok {
			return nil, fmt.Errorf("no ring owner for %s", h)
		}
		out[h] = slices.IndexFunc(members, func(x cluster.Member) bool { return x.ID == m.ID })
	}
	return out, nil
}

// members lists the cluster nodes at bases under clusterIDs.
func members(bases []string) []cluster.Member {
	var out []cluster.Member
	for i, b := range bases {
		out = append(out, cluster.Member{ID: clusterIDs[i], URL: b})
	}
	return out
}

// splitByOwner appends to parts, per node index, the reports of batch
// that node owns.
func splitByOwner(parts [][]ingest.Report, batch []ingest.Report, owner map[string]int) [][]ingest.Report {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for _, r := range batch {
		i := owner[r.Host]
		parts[i] = append(parts[i], r)
	}
	return parts
}

// driveFlood runs c.conns closed-loop connections for window. Each posts
// its seeded 256-report batches with ingest.Client.PostReports. Whole
// batches go round-robin over bases, and every tableEvery-th operation
// reads the tables instead; the reads are the auxiliary operation. With
// owner set, each batch is split into one post per owning node, there
// are no reads, and the auxiliary operation is the whole batch, from its
// first post to its last verdict. path is the batch endpoint under each
// base (per lane when traced, where encode is also timed on the lane).
func driveFlood(c *runCtx, w *world, bases []string, owner map[string]int, path func(lane int) string, window time.Duration, tr *tracer) *floodRun {
	fr := &floodRun{clients: make([]ingest.ClientStats, c.conns), acked: make([][]ackedPost, c.conns)}
	type laneOut struct {
		uploads, aux []sample
		t            tally
		posts        int64
		refusedB     int64
		failedB      int64
		badReads     int
		badWhy       string
	}
	outs := make([]laneOut, c.conns)
	start := time.Now()
	end := start.Add(window)
	every := c.tableEvery
	if owner != nil {
		every = 0
	}
	var wg sync.WaitGroup
	for lane := 0; lane < c.conns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			out := &outs[lane]
			httpc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			var clients []*ingest.Client
			for _, b := range bases {
				cl := ingest.NewClient(b + path(lane))
				cl.HTTPClient = httpc
				cl.Seed = c.seed + uint64(lane) + 1
				clients = append(clients, cl)
			}
			var batch []ingest.Report
			parts := make([][]ingest.Report, len(bases))
			var encodeBuf []byte
			// post uploads reports to node i as one timed operation.
			post := func(i int, reports []ingest.Report, ack ackedPost) bool {
				cl := clients[i]
				if tr != nil {
					s := tr.now()
					encodeBuf, _ = ingest.AppendReports(encodeBuf[:0], reports)
					tr.add(lane, "ingest.encode", s)
				}
				before := cl.Stats()
				t0 := time.Now()
				err := cl.PostReports(reports)
				x := sample{d: time.Since(t0), failed: err != nil, at: time.Since(start)}
				after := cl.Stats()
				x.n = int64(after.Accepted - before.Accepted)
				out.uploads = append(out.uploads, x)
				out.t.ops++
				out.posts++
				out.t.reports += int64(len(reports))
				switch {
				case err == nil:
					out.t.accepted += int64(after.Accepted - before.Accepted)
					out.t.rejected += int64(after.Rejected - before.Rejected)
					fr.acked[lane] = append(fr.acked[lane], ack)
				case strings.Contains(err.Error(), "not owner"):
					out.t.opsFailed++
					out.refusedB++
					out.t.refused += int64(len(reports))
				default:
					out.t.opsFailed++
					out.failedB++
					out.t.failed += int64(len(reports))
				}
				return err == nil
			}
			b := 0
			// Offsetting each connection's reads spreads them evenly
			// rather than having every connection read at once.
			off := lane * every / c.conns
			for k := 0; time.Now().Before(end); k++ {
				if j := k + off; every > 0 && j%every == every-1 {
					read := j / every
					base := bases[read%len(bases)]
					t0 := time.Now()
					var err error
					for _, path := range floodTables {
						var body []byte
						if body, err = httpGet(httpc, base+path); err == nil && len(body) == 0 {
							err = fmt.Errorf("%s%s: empty table", base, path)
						}
						if err != nil {
							break
						}
					}
					ok := err == nil
					if read < timedReads {
						out.aux = append(out.aux, sample{d: time.Since(t0), failed: !ok})
					}
					out.t.ops++
					if !ok {
						out.t.opsFailed++
						if out.badReads == 0 {
							out.badWhy = err.Error()
						}
						out.badReads++
					}
					continue
				}
				batch = w.batch(batch, c.seed, lane, b)
				if owner == nil {
					post(b%len(clients), batch, ackedPost{b: b, part: -1})
				} else {
					parts = splitByOwner(parts, batch, owner)
					t0 := time.Now()
					ok := true
					for i, part := range parts {
						if len(part) > 0 {
							ok = post(i, part, ackedPost{b: b, part: i}) && ok
						}
					}
					out.aux = append(out.aux, sample{d: time.Since(t0), failed: !ok})
				}
				b++
			}
			var cs []ingest.ClientStats
			for _, cl := range clients {
				cs = append(cs, cl.Stats())
			}
			fr.clients[lane] = sumClients(cs)
		}(lane)
	}
	wg.Wait()
	fr.load.elapsed = time.Since(start)
	fr.load.window = window
	fr.load.noAux = every == 0 && owner == nil
	fr.load.overallRate = owner != nil
	for _, out := range outs {
		fr.load.primary = append(fr.load.primary, out.uploads...)
		fr.load.aux = append(fr.load.aux, out.aux...)
		t := &fr.load.tally
		t.ops += out.t.ops
		t.opsFailed += out.t.opsFailed
		t.reports += out.t.reports
		t.accepted += out.t.accepted
		t.rejected += out.t.rejected
		t.refused += out.t.refused
		t.failed += out.t.failed
		fr.posts += out.posts
		fr.refusedB += out.refusedB
		fr.failedB += out.failedB
		if out.badReads > 0 && fr.badReads == 0 {
			fr.badWhy = out.badWhy
		}
		fr.badReads += out.badReads
	}
	fr.load.accepted = fr.load.tally.accepted
	return fr
}

// reference feeds the acknowledged posts of the seeded stream through
// core.Collector into store.New in-process, as reportd would have seen
// them from a loopback client.
func reference(w *world, seed uint64, acked [][]ackedPost, owner map[string]int) *store.DB {
	db := store.New(0)
	col := core.NewCollector(classify.NewClassifier(), geo.NewDB(), db)
	col.Cache = core.NewObservationCache(0, 0)
	for h, chain := range w.auth {
		col.SetAuthoritative(h, chain)
	}
	req := &http.Request{RemoteAddr: "127.0.0.1:1"}
	ip := core.ClientIPFromRequest(req)
	var batch []ingest.Report
	for lane, posts := range acked {
		for _, p := range posts {
			batch = w.batch(batch, seed, lane, p.b)
			for _, r := range batch {
				if p.part < 0 || owner[r.Host] == p.part {
					col.Ingest(ip, r.Host, r.ChainDER, "manual")
				}
			}
		}
	}
	return db
}

// render renders the checked tables from db.
func render(db *store.DB) (map[string]string, error) {
	out := make(map[string]string)
	for path, f := range tableRenders {
		var b strings.Builder
		if err := f(&b, db); err != nil {
			return nil, err
		}
		out[path] = b.String()
	}
	return out, nil
}

// checkTables compares the tables a server rendered with the reference.
func checkTables(o *outcome, what string, got, want map[string]string) {
	for path, w := range want {
		o.check(got[path] == w, "%s %s differs from the reference:\n--- got ---\n%s\n--- want ---\n%s", what, path, got[path], w)
	}
}

// checkFloodRun reconciles a flood pass across the generator's tally and
// the clients' accounting.
// Only round-robin cluster uploads may be refused or fail.
func checkFloodRun(o *outcome, fr *floodRun, mode floodMode) {
	t := fr.load.tally
	reconcile(o, t)
	cs := sumClients(fr.clients)
	o.check(int64(cs.Accepted) == t.accepted && int64(cs.Rejected) == t.rejected,
		"ingest.Client accepted/rejected %d/%d, generator tallied %d/%d", cs.Accepted, cs.Rejected, t.accepted, t.rejected)
	o.check(int64(cs.PostErrors) == fr.refusedB+fr.failedB,
		"ingest.Client counted %d post errors, generator %d refused + %d failed posts", cs.PostErrors, fr.refusedB, fr.failedB)
	o.check(fr.badReads == 0, "%d table reads failed (first: %s)", fr.badReads, fr.badWhy)
	o.check(t.rejected == 0, "reportd rejected %d reports", t.rejected)
	if !mode.clustered || mode.byOwner {
		o.check(t.refused == 0 && t.failed == 0, "reportd refused %d and failed %d reports", t.refused, t.failed)
	}
	o.record("client", cs)
	o.record("posts", fr.posts)
	o.record("refused_posts", fr.refusedB)
}

func runFlood(c *runCtx, o *outcome, mode floodMode) error {
	switch {
	case mode.byOwner:
		o.detail["topology"] = "3 x reportd -cluster-id/-cluster-peers -data-dir, each batch split by ring owner into one post per owner, semi-sync replica acks on"
	case mode.clustered:
		o.detail["topology"] = "3 x reportd -cluster-id/-cluster-peers -data-dir, uploads round-robin, semi-sync replica acks on"
	default:
		o.detail["topology"] = "reportd -data-dir (standalone)"
	}
	if mode.byOwner {
		o.detail["table_read_every"] = 0
	} else {
		o.detail["table_read_every"] = c.tableEvery
	}
	w, err := mintWorld()
	if err != nil {
		return err
	}
	o.detail["stream_sha256"] = w.streamDigest(c.seed, c.conns, 64)
	o.detail["products"] = w.products

	share, n := c.untracedPass()
	var insts []instance
	var setups []float64
	var scraped map[string]float64
	for i := 0; i < n; i++ {
		topo, d, err := setupFlood(c, w, mode)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		o.detail["flags"] = procFlags(topo.g)
		in, sc, err := measureFlood(c, o, w, topo, mode, c.window(share))
		if err != nil {
			return err
		}
		insts, scraped = append(insts, in), sc
	}
	if !c.trace {
		e2eMetrics(o, c.workload, insts, setups)
		return nil
	}
	r := insts[0].load
	o.attempted += r.tally.ops
	o.failed += r.tally.opsFailed
	return tracedFlood(c, o, w, mode, ratio(float64(r.tally.reports), r.elapsed.Seconds()), scraped)
}

// measureFlood drives one flood topology for window, checks its tables
// and counters against the reference, and stops it. It returns the
// instance and the servers' counters per 1k reports.
func measureFlood(c *runCtx, o *outcome, w *world, topo *floodTopo, mode floodMode, window time.Duration) (instance, map[string]float64, error) {
	setupRSS, err := topo.g.rss()
	if err != nil {
		return instance{}, nil, err
	}
	var owner map[string]int
	if mode.byOwner {
		if owner, err = ownerIndex(w.hosts, members(topo.urls)); err != nil {
			return instance{}, nil, err
		}
	}
	fr := driveFlood(c, w, topo.urls, owner, func(int) string { return "/ingest/batch" }, window, nil)
	checkFloodRun(o, fr, mode)
	t := fr.load.tally
	want, err := render(reference(w, c.seed, fr.acked, owner))
	if err != nil {
		return instance{}, nil, err
	}

	// The servers' view, scraped once at the end.
	var tested, memoHits, fsyncs, measured, notOwner float64
	var docs []map[string]any
	for _, u := range topo.urls {
		body, err := httpGet(pollClient, u+"/stats")
		if err != nil {
			return instance{}, nil, err
		}
		n, _, err := parseStats(body)
		o.check(err == nil, "reportd /stats unreadable: %q", body)
		tested += float64(n)
		doc, err := scrape(u + "/metrics")
		if err != nil {
			return instance{}, nil, err
		}
		docs = append(docs, doc)
		memoHits += num(doc, "cache", "hits")
		fsyncs += num(doc, "wal_totals", "fsyncs")
		measured += num(doc, "telemetry", "cluster_ingest_measurements_total")
		notOwner += num(doc, "telemetry", "cluster_ingest_not_owner_total")
	}
	o.check(int64(tested) == t.accepted, "reportd /stats tested %v, clients had %d accepted", tested, t.accepted)
	if mode.clustered {
		o.check(int64(measured) == t.accepted, "cluster nodes counted %v measurements, clients had %d accepted", measured, t.accepted)
		got, err := clusterTables(topo.urls)
		if err != nil {
			return instance{}, nil, err
		}
		checkTables(o, "merged /cluster/snapshot", got, want)
	} else {
		o.check(int64(num(docs[0], "ingest", "Enqueued")) == t.accepted && num(docs[0], "ingest", "Dropped") == 0,
			"reportd /metrics enqueued %v dropped %v, want %d and 0", num(docs[0], "ingest", "Enqueued"), num(docs[0], "ingest", "Dropped"), t.accepted)
		got := make(map[string]string)
		for path := range want {
			body, err := httpGet(pollClient, topo.urls[0]+path)
			if err != nil {
				return instance{}, nil, err
			}
			got[path] = string(body)
		}
		checkTables(o, "reportd", got, want)
	}
	reports := float64(t.reports)
	cs := sumClients(fr.clients)
	scraped := map[string]float64{
		"forge_hits_per_1k": 0, // no proxy in front
		"memo_hits_per_1k":  per1k(memoHits, reports),
		"fsyncs_per_1k":     per1k(fsyncs, reports),
		"not_owner_per_1k":  per1k(notOwner, reports),
	}
	o.record("scraped_per_1k", scraped)
	o.record("client_not_owner_per_1k", per1k(float64(cs.NotOwnerRetries+uint64(fr.refusedB)), reports))

	rss, err := topo.g.stop()
	if err != nil {
		return instance{}, nil, err
	}
	return instance{load: &fr.load, setupRSS: setupRSS, loadedRSS: rss}, scraped, nil
}

// clusterTables merges every node's /cluster/snapshot and renders the
// checked tables.
func clusterTables(urls []string) (map[string]string, error) {
	var dbs []*store.DB
	for _, u := range urls {
		body, err := httpGet(pollClient, u+"/cluster/snapshot")
		if err != nil {
			return nil, err
		}
		db, err := store.DecodeSnapshot(body)
		if err != nil {
			return nil, fmt.Errorf("%s/cluster/snapshot: %w", u, err)
		}
		dbs = append(dbs, db)
	}
	return render(store.Merge(0, dbs...))
}

// tracedFlood is the traced pass of report-flood and cluster-flood: the
// same reportd topology in one process. Its throughput is reports
// attempted per second, so a pass that refuses everything still
// compares with its untraced twin.
func tracedFlood(c *runCtx, o *outcome, w *world, mode floodMode, untraced float64, scraped map[string]float64) error {
	tr := newTracer(c.conns)
	d, err := c.dir("flood-traced")
	if err != nil {
		return err
	}
	m := o.metrics
	m["certgen.keygen_s"] = w.keygen.Seconds()
	m["certgen.mint_ms"] = ms(pct(fromDurations(w.mints), 0.5))
	var fr *floodRun
	var traced map[string]float64
	if mode.clustered {
		cl, err := startInprocCluster(tr, c.conns, w.auth, d, clusterIDs)
		if err != nil {
			return err
		}
		var owner map[string]int
		if mode.byOwner {
			if owner, err = ownerIndex(w.hosts, members(cl.urls)); err != nil {
				cl.close()
				return err
			}
		}
		fr = driveFlood(c, w, cl.urls, owner, lanePath, c.window(tracedShare), tr)
		checkFloodRun(o, fr, mode)
		want, err := render(reference(w, c.seed, fr.acked, owner))
		if err != nil {
			return err
		}
		var dbs []*store.DB
		for _, n := range cl.nodes {
			dbs = append(dbs, n.MergeLocal())
		}
		got, err := render(store.Merge(0, dbs...))
		if err != nil {
			return err
		}
		checkTables(o, "traced cluster merge", got, want)
		cs := sumClients(fr.clients)
		handlerLayers(o, tr, cs, float64(fr.posts))
		tableLayers(o, tr)
		accepted := float64(fr.load.tally.accepted)
		m["cluster.refused_share"] = ratio(float64(fr.refusedB), float64(fr.posts))
		m["cluster.node_us_per_report"] = ratio(us(sum(tr.all("ingest.sink"))), accepted)
		m["cluster.ack_waits"] = cl.counter("repl_ack_waits_total")
		m["cluster.ack_timeouts"] = cl.counter("repl_ack_timeouts_total")
		m["cluster.repl_frames_applied"] = cl.counter("repl_frames_applied_total")
		var hits, misses, derives uint64
		for _, cache := range cl.caches {
			s := cache.Stats()
			hits, misses, derives = hits+s.Hits, misses+s.Misses, derives+s.Derives
		}
		m["chaincache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["chaincache.derives"] = float64(derives)
		encodes := tr.all("ingest.encode")
		m["ingest.encode_us_per_batch"] = ratio(us(sum(encodes)), float64(len(encodes)))
		reports := float64(fr.load.tally.reports)
		traced = map[string]float64{
			"memo_hits_per_1k": per1k(float64(hits), reports),
			"fsyncs_per_1k":    0, // the node's WALs expose no Stats()
			"not_owner_per_1k": per1k(float64(cs.NotOwnerRetries+uint64(fr.refusedB)), reports),
		}
		if err := cl.close(); err != nil {
			return err
		}
	} else {
		rd, err := startInprocReportd(tr, c.conns, w.auth, filepath.Join(d, "data"))
		if err != nil {
			return err
		}
		fr = driveFlood(c, w, []string{rd.url}, nil, lanePath, c.window(tracedShare), tr)
		checkFloodRun(o, fr, mode)
		want, err := render(reference(w, c.seed, fr.acked, nil))
		if err != nil {
			return err
		}
		rd.pipeline.Drain()
		got, err := render(rd.pipeline.Merge(0))
		if err != nil {
			return err
		}
		checkTables(o, "traced pipeline merge", got, want)
		cs := sumClients(fr.clients)
		accepted := float64(fr.load.tally.accepted)
		ingestLayers(o, tr, cs, rd, accepted, float64(fr.posts))
		reports := float64(fr.load.tally.reports)
		traced = map[string]float64{
			"memo_hits_per_1k": per1k(float64(rd.cache.Stats().Hits), reports),
			"fsyncs_per_1k":    per1k(walFsyncs(rd), reports),
			"not_owner_per_1k": 0,
		}
		if err := rd.close(); err != nil {
			return err
		}
	}
	o.attempted += fr.load.tally.ops
	o.failed += fr.load.tally.opsFailed
	m["trace.overhead_share"] = 1 - ratio(ratio(float64(fr.load.tally.reports), fr.load.elapsed.Seconds()), untraced)
	drift(o, "forge_hits_per_1k", scraped["forge_hits_per_1k"], 0)
	for _, k := range []string{"memo_hits_per_1k", "fsyncs_per_1k", "not_owner_per_1k"} {
		drift(o, k, scraped[k], traced[k])
	}
	return nil
}
