package main

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// liveProduct is the profile mitmd runs in live-probe.
const liveProduct = "Bitdefender"

// probeTimeout bounds one probe; a closed loop never waits this long
// unless something is broken.
const probeTimeout = 10 * time.Second

// liveTopo is the live-probe process topology: origin → mitmd → reportd.
type liveTopo struct {
	g          group
	mitmAddr   string
	mitmStats  string
	reportdURL string
}

// setupLive starts origin, reportd and mitmd with only addresses,
// -refdir, -data-dir and -product, then warms mitmd's forge cache with
// one probe per host. It returns the topology and the set-up time.
func setupLive(c *runCtx, hosts []string) (*liveTopo, time.Duration, error) {
	t0 := time.Now()
	d, err := c.dir("live")
	if err != nil {
		return nil, 0, err
	}
	var addrs [4]string
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, 0, err
		}
	}
	originAddr, reportdAddr, mitmAddr, statsAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	refdir := filepath.Join(d, "refs")
	t := &liveTopo{mitmAddr: mitmAddr, mitmStats: "http://" + statsAddr, reportdURL: "http://" + reportdAddr}
	fail := func(err error) (*liveTopo, time.Duration, error) {
		t.g.stop()
		return nil, 0, err
	}
	origin, err := spawn(c.bin, d, "origin", "-listen", originAddr, "-hosts", strings.Join(hosts, ","), "-refdir", refdir)
	if err != nil {
		return fail(err)
	}
	t.g = append(t.g, origin)
	if err := waitReady(origin, "listener", tcpUp(originAddr)); err != nil {
		return fail(err)
	}
	reportd, err := spawn(c.bin, d, "reportd", "-listen", reportdAddr, "-refdir", refdir, "-data-dir", filepath.Join(d, "data"))
	if err != nil {
		return fail(err)
	}
	t.g = append(t.g, reportd)
	if err := waitReady(reportd, "/stats", httpUp(t.reportdURL+"/stats")); err != nil {
		return fail(err)
	}
	mitmd, err := spawn(c.bin, d, "mitmd", "-listen", mitmAddr, "-upstream", originAddr, "-product", liveProduct, "-stats", statsAddr)
	if err != nil {
		return fail(err)
	}
	t.g = append(t.g, mitmd)
	// mitmd binds its intercept listener before the stats listener, so a
	// live /metrics means both are up.
	if err := waitReady(mitmd, "/metrics", httpUp(t.mitmStats+"/metrics")); err != nil {
		return fail(err)
	}
	for _, h := range hosts {
		if _, err := tlswire.ProbeAddr(mitmAddr, tlswire.ProbeOptions{ServerName: h, Timeout: probeTimeout}); err != nil {
			return fail(fmt.Errorf("warming the forge cache for %s: %w", h, err))
		}
	}
	elapsed := time.Since(t0)
	return t, elapsed, nil
}

// captureCheck verifies that every captured chain carries the proxy
// product's issuer. A forged chain is parsed once per host and
// connection; later captures must repeat its leaf byte for byte.
type captureCheck struct {
	issuer string
	seen   map[string][]byte
	bad    int
	first  string
}

func (cc *captureCheck) ok(host string, chain [][]byte) bool {
	if len(chain) == 0 {
		return cc.fail(host, "empty chain")
	}
	if leaf, ok := cc.seen[host]; ok && bytes.Equal(leaf, chain[0]) {
		return true
	}
	cert, err := x509.ParseCertificate(chain[0])
	if err != nil {
		return cc.fail(host, err.Error())
	}
	if !slices.Contains(cert.Issuer.Organization, cc.issuer) {
		return cc.fail(host, fmt.Sprintf("issuer %v, want %q", cert.Issuer.Organization, cc.issuer))
	}
	cc.seen[host] = chain[0]
	return true
}

func (cc *captureCheck) fail(host, why string) bool {
	if cc.bad == 0 {
		cc.first = host + ": " + why
	}
	cc.bad++
	return false
}

// probeRun is one live-probe pass's client-side accounting.
type probeRun struct {
	load    loadResult
	clients []ingest.ClientStats
	badCaps int
	badWhy  string
}

// driveProbes runs c.conns closed-loop connections for window: each
// dials the proxy, probes the seeded SNI, checks the capture and hands
// it to its own ingest.Client, which uploads at the default 256-report
// batch. With a tracer, dial, probe and encode are recorded as spans on
// the connection's lane, and each lane uses its own proxy address and
// upload URL.
func driveProbes(c *runCtx, addrs, urls []string, hosts []string, issuer string, window time.Duration, tr *tracer) *probeRun {
	pr := &probeRun{clients: make([]ingest.ClientStats, c.conns)}
	type laneOut struct {
		probes, uploads []sample
		t               tally
		checks          captureCheck
	}
	outs := make([]laneOut, c.conns)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			out.checks = captureCheck{issuer: issuer, seen: make(map[string][]byte)}
			addr := addrs[w%len(addrs)]
			client := ingest.NewClient(urls[w%len(urls)])
			client.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			client.Seed = c.seed + uint64(w) + 1
			prober := tlswire.NewProber()
			dialer := net.Dialer{Timeout: probeTimeout}
			var pending []ingest.Report // traced only: the batch the client holds, for encode timing
			var encodeBuf []byte
			buffered := 0
			// The connections start in step. A shorter first batch on
			// each spreads their uploads evenly over the batch period, as
			// independent fleet workers' are, instead of every flush
			// colliding with the other connections'.
			firstFlush := ingest.DefaultClientBatch - w*ingest.DefaultClientBatch/c.conns
			upload := func(f func() error) {
				before := client.Stats()
				u0 := time.Now()
				err := f()
				out.uploads = append(out.uploads, sample{d: time.Since(u0), failed: err != nil})
				after := client.Stats()
				if err != nil {
					out.t.failed += int64(buffered)
				} else {
					out.t.accepted += int64(after.Accepted - before.Accepted)
					out.t.rejected += int64(after.Rejected - before.Rejected)
				}
				if tr != nil {
					s := tr.now()
					encodeBuf, _ = ingest.AppendReports(encodeBuf[:0], pending)
					tr.add(w, "ingest.encode", s)
					pending = pending[:0]
				}
				buffered, firstFlush = 0, 0
			}
			for k := 0; time.Now().Before(end); k++ {
				host := probeHost(c.seed, hosts, w, k)
				var s0 time.Duration
				if tr != nil {
					s0 = tr.now()
				}
				t0 := time.Now()
				conn, err := dialer.Dial("tcp", addr)
				var res *tlswire.ProbeResult
				if err == nil {
					var s1 time.Duration
					if tr != nil {
						tr.add(w, "tlswire.dial", s0)
						s1 = tr.now()
					}
					res, err = prober.Probe(conn, tlswire.ProbeOptions{ServerName: host, Timeout: probeTimeout})
					if tr != nil {
						tr.add(w, "tlswire.probe", s1)
					}
					conn.Close()
				}
				d := time.Since(t0)
				ok := err == nil && out.checks.ok(host, res.ChainDER)
				x := sample{d: d, failed: !ok, at: time.Since(start)}
				if ok {
					x.n = 1 // accepted once uploaded; checkProbeRun holds reportd to that
				}
				out.probes = append(out.probes, x)
				out.t.ops++
				if !ok {
					out.t.opsFailed++
					continue
				}
				out.t.reports++
				rep := ingest.Report{Host: host, ChainDER: res.ChainDER}
				buffered++
				if tr != nil {
					pending = append(pending, rep)
				}
				if buffered == ingest.DefaultClientBatch {
					// The client flushes on its batch's last report.
					upload(func() error { return client.Report(rep) })
					continue
				}
				_ = client.Report(rep) // below the batch size, Report only enqueues
				if buffered == firstFlush {
					upload(client.Flush)
				}
			}
			if buffered > 0 {
				upload(client.Flush)
			}
			pr.clients[w] = client.Stats()
		}(w)
	}
	wg.Wait()
	pr.load.elapsed = time.Since(start)
	pr.load.window = window
	for _, out := range outs {
		pr.load.primary = append(pr.load.primary, out.probes...)
		pr.load.aux = append(pr.load.aux, out.uploads...)
		t := &pr.load.tally
		t.ops += out.t.ops
		t.opsFailed += out.t.opsFailed
		t.reports += out.t.reports
		t.accepted += out.t.accepted
		t.rejected += out.t.rejected
		t.failed += out.t.failed
		if out.checks.bad > 0 && pr.badCaps == 0 {
			pr.badWhy = out.checks.first
		}
		pr.badCaps += out.checks.bad
	}
	pr.load.accepted = pr.load.tally.accepted
	return pr
}

// sumClients adds up the per-connection client accounting.
func sumClients(cs []ingest.ClientStats) ingest.ClientStats {
	var s ingest.ClientStats
	for _, c := range cs {
		s.Reported += c.Reported
		s.Posts += c.Posts
		s.PostErrors += c.PostErrors
		s.Retries += c.Retries
		s.Accepted += c.Accepted
		s.Rejected += c.Rejected
		s.NotOwnerRetries += c.NotOwnerRetries
	}
	return s
}

// checkProbeRun reconciles a live-probe pass: the generator's tally, the
// clients' accounting and the captures.
func checkProbeRun(o *outcome, pr *probeRun) {
	t := pr.load.tally
	reconcile(o, t)
	o.check(pr.badCaps == 0, "%d captures lacked the %s issuer (first: %s)", pr.badCaps, liveProduct, pr.badWhy)
	cs := sumClients(pr.clients)
	o.check(int64(cs.Reported) == t.reports, "ingest.Client saw %d reports, generator handed it %d", cs.Reported, t.reports)
	o.check(int64(cs.Accepted) == t.accepted && int64(cs.Rejected) == t.rejected,
		"ingest.Client accepted/rejected %d/%d, generator tallied %d/%d", cs.Accepted, cs.Rejected, t.accepted, t.rejected)
	o.check(t.opsFailed == 0, "%d of %d probes failed", t.opsFailed, t.ops)
	o.check(t.rejected == 0, "reportd rejected %d captures", t.rejected)
	o.record("client", cs)
}

// parseStats reads reportd's "/stats" line: "store: N tested, M proxied ...".
func parseStats(body []byte) (tested, proxied int64, err error) {
	_, err = fmt.Sscanf(string(body), "store: %d tested, %d proxied", &tested, &proxied)
	return tested, proxied, err
}

func runLiveProbe(c *runCtx, o *outcome) error {
	hosts := studyHosts()
	issuer := proxyengine.FromProduct(classify.ProductByName(liveProduct)).IssuerOrg
	o.detail["topology"] = "origin -> mitmd -product " + liveProduct + " -> reportd -data-dir (standalone)"
	o.detail["probe_order_sha256"] = probeOrderDigest(c.seed, hosts, c.conns, 1024)
	o.detail["hosts"] = len(hosts)

	share, n := c.untracedPass()
	var insts []instance
	var setups []float64
	var scraped map[string]float64
	for i := 0; i < n; i++ {
		topo, d, err := setupLive(c, hosts)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		o.detail["flags"] = procFlags(topo.g)
		in, sc, err := measureLive(c, o, topo, hosts, issuer, c.window(share))
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
	return tracedLive(c, o, hosts, issuer, ratio(float64(r.accepted), r.elapsed.Seconds()), scraped)
}

// measureLive drives one live-probe topology for window, checks it
// against what the servers report, and stops it. It returns the
// instance and the servers' counters per 1k reports.
func measureLive(c *runCtx, o *outcome, topo *liveTopo, hosts []string, issuer string, window time.Duration) (instance, map[string]float64, error) {
	setupRSS, err := topo.g.rss()
	if err != nil {
		return instance{}, nil, err
	}
	pr := driveProbes(c, []string{topo.mitmAddr}, []string{topo.reportdURL + "/ingest/batch"}, hosts, issuer, window, nil)
	checkProbeRun(o, pr)
	t := pr.load.tally

	// The servers' own view, scraped once at the end.
	statsBody, err := httpGet(pollClient, topo.reportdURL+"/stats")
	if err != nil {
		return instance{}, nil, err
	}
	tested, proxied, err := parseStats(statsBody)
	o.check(err == nil, "reportd /stats unreadable: %q", statsBody)
	o.check(tested == t.accepted, "reportd tested %d, clients had %d accepted", tested, t.accepted)
	o.check(proxied == t.accepted, "reportd saw %d proxied of %d; every probe went through %s", proxied, t.accepted, liveProduct)
	rdoc, err := scrape(topo.reportdURL + "/metrics")
	if err != nil {
		return instance{}, nil, err
	}
	o.check(int64(num(rdoc, "ingest", "Enqueued")) == t.accepted && num(rdoc, "ingest", "Dropped") == 0,
		"reportd /metrics enqueued %v dropped %v, want %d and 0", num(rdoc, "ingest", "Enqueued"), num(rdoc, "ingest", "Dropped"), t.accepted)
	mdoc, err := mitmSettled(topo.mitmStats + "/metrics")
	if err != nil {
		return instance{}, nil, err
	}
	warm := float64(len(hosts))
	o.check(num(mdoc, "conns", "accepted") == float64(t.ops)+warm && num(mdoc, "conns", "errored") == 0,
		"mitmd accepted %v conns (%v errored), want %v probes + %v warm-up and none errored",
		num(mdoc, "conns", "accepted"), num(mdoc, "conns", "errored"), t.ops, warm)
	accepted := float64(t.accepted)
	scraped := map[string]float64{
		"forge_hits_per_1k": per1k(num(mdoc, "forge_cache", "hits"), accepted),
		"memo_hits_per_1k":  per1k(num(rdoc, "cache", "hits"), accepted),
		"fsyncs_per_1k":     per1k(num(rdoc, "wal_totals", "fsyncs"), accepted),
		"not_owner_per_1k":  0, // standalone reportd has no owners
	}
	o.record("scraped_per_1k", scraped)

	rss, err := topo.g.stop()
	if err != nil {
		return instance{}, nil, err
	}
	return instance{load: &pr.load, setupRSS: setupRSS, loadedRSS: rss}, scraped, nil
}

// mitmSettled scrapes mitmd until no connection is still in flight, so
// its counters cover every probe.
func mitmSettled(url string) (map[string]any, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		doc, err := scrape(url)
		if err != nil || num(doc, "conns", "active") == 0 || time.Now().After(deadline) {
			return doc, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// procFlags records the flags each process was started with (values
// elided for addresses and directories, which change every run).
func procFlags(g group) map[string][]string {
	out := make(map[string][]string)
	for _, p := range g {
		var flags []string
		for _, a := range p.args {
			if strings.HasPrefix(a, "-") {
				flags = append(flags, a)
			}
		}
		out[p.name] = flags
	}
	return out
}

// tracedLive is the traced pass of live-probe: origin, interceptor lanes
// and reportd in one process.
func tracedLive(c *runCtx, o *outcome, hosts []string, issuer string, untraced float64, scraped map[string]float64) error {
	tr := newTracer(c.conns)
	d, err := c.dir("live-traced")
	if err != nil {
		return err
	}
	// The origin, as examples/live-wire/origin mints it.
	opool := certgen.NewKeyPool(2, nil)
	k0 := time.Now()
	if err := <-opool.Prewarm(2048); err != nil {
		return err
	}
	keygen := time.Since(k0)
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "LiveWire Root CA", Organization: []string{"LiveWire Authority"}},
		Pool:    opool,
	})
	if err != nil {
		return err
	}
	chains := make(map[string][][]byte)
	for _, h := range hosts {
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: h, Pool: opool})
		if err != nil {
			return err
		}
		chains[h] = leaf.ChainDER
	}
	originLn, err := startOrigin(chains)
	if err != nil {
		return err
	}
	defer originLn.Close()

	// The engine, as cmd/mitmd builds it.
	profile := proxyengine.FromProduct(classify.ProductByName(liveProduct))
	pool := certgen.NewKeyPool(4, nil)
	pool.SetAsyncRefill(true)
	k0 = time.Now()
	if err := <-pool.Prewarm(profile.LeafKeyBits()); err != nil {
		return err
	}
	engine, err := proxyengine.New(profile, proxyengine.Options{Pool: pool})
	if err != nil {
		return err
	}
	keygen += time.Since(k0)
	var mints []time.Duration
	for _, h := range hosts {
		upstream, err := x509util.ParseChain(chains[h])
		if err != nil {
			return err
		}
		m0 := time.Now()
		if _, err := engine.Decide(h, upstream, chains[h]); err != nil {
			return err
		}
		mints = append(mints, time.Since(m0))
	}
	mitm, err := startInprocMitm(tr, c.conns, engine, originLn.Addr().String())
	if err != nil {
		return err
	}
	defer mitm.close()
	rd, err := startInprocReportd(tr, c.conns, chains, filepath.Join(d, "data"))
	if err != nil {
		return err
	}
	var urls []string
	for i := 0; i < c.conns; i++ {
		urls = append(urls, rd.url+lanePath(i))
	}
	pr := driveProbes(c, mitm.addrs, urls, hosts, issuer, c.window(tracedShare), tr)
	checkProbeRun(o, pr)
	rd.pipeline.Drain()
	st := rd.pipeline.Stats()
	o.check(int64(st.Enqueued) == pr.load.tally.accepted, "traced pipeline enqueued %d, clients had %d accepted", st.Enqueued, pr.load.tally.accepted)
	o.attempted += pr.load.tally.ops
	o.failed += pr.load.tally.opsFailed

	m := o.metrics
	m["certgen.keygen_s"] = keygen.Seconds()
	m["certgen.mint_ms"] = ms(pct(fromDurations(mints), 0.5))
	probeLayers(o, tr)
	fs := engine.CacheStats()
	m["proxyengine.forge_hit_ratio"] = ratio(float64(fs.Hits), float64(fs.Hits+fs.Misses))
	m["proxyengine.forges"] = float64(fs.Forges)
	cs := sumClients(pr.clients)
	accepted := float64(pr.load.tally.accepted)
	ingestLayers(o, tr, cs, rd, accepted, float64(len(pr.load.aux)))
	traced := ratio(accepted, pr.load.elapsed.Seconds())
	m["trace.overhead_share"] = 1 - ratio(traced, untraced)
	drift(o, "forge_hits_per_1k", scraped["forge_hits_per_1k"], per1k(float64(fs.Hits), accepted))
	drift(o, "memo_hits_per_1k", scraped["memo_hits_per_1k"], per1k(float64(rd.cache.Stats().Hits), accepted))
	drift(o, "fsyncs_per_1k", scraped["fsyncs_per_1k"], per1k(walFsyncs(rd), accepted))
	drift(o, "not_owner_per_1k", scraped["not_owner_per_1k"], 0)
	return rd.close()
}

// probeLayers fills the probe-side and interceptor per-layer metrics.
func probeLayers(o *outcome, tr *tracer) {
	m := o.metrics
	m["tlswire.dial_p50_us"] = us(pct(durations(tr.all("tlswire.dial")), 0.5))
	probes := durations(tr.all("tlswire.probe"))
	m["tlswire.probe_p50_us"] = us(pct(probes, 0.5))
	m["tlswire.probe_p99_us"] = us(pct(probes, 0.99))
	m["proxyengine.conn_p50_us"] = us(pct(durations(tr.all("proxyengine.conn")), 0.5))
	m["proxyengine.upstream_p50_us"] = us(pct(durations(tr.all("proxyengine.upstream")), 0.5))
	m["proxyengine.self_p50_us"] = us(pct(fromDurations(tr.selfTimes("proxyengine.conn", "proxyengine.upstream")), 0.5))
}

// walFsyncs sums the pipeline WALs' fsyncs.
func walFsyncs(rd *inprocReportd) float64 {
	var n uint64
	for _, s := range rd.pipeline.WALStats() {
		n += s.Fsyncs
	}
	return float64(n)
}

// ingestLayers fills the upload, handler, memo, WAL and table metrics of
// a standalone reportd pass.
func ingestLayers(o *outcome, tr *tracer, cs ingest.ClientStats, rd *inprocReportd, accepted, batches float64) {
	m := o.metrics
	encodes := tr.all("ingest.encode")
	m["ingest.encode_us_per_batch"] = ratio(us(sum(encodes)), float64(len(encodes)))
	handlerLayers(o, tr, cs, batches)
	st := rd.pipeline.Stats()
	m["ingest.enqueued"] = float64(st.Enqueued)
	m["ingest.ingested"] = float64(st.Ingested)
	m["ingest.dropped"] = float64(st.Dropped)
	cache := rd.cache.Stats()
	m["chaincache.hit_ratio"] = ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses))
	m["chaincache.derives"] = float64(cache.Derives)
	var frames, appends, bytes, fsyncs uint64
	for _, s := range rd.pipeline.WALStats() {
		frames += s.AppendedFrames
		appends += s.GroupAppends
		bytes += s.AppendedBytes
		fsyncs += s.Fsyncs
	}
	m["durable.fsyncs_per_1k_reports"] = per1k(float64(fsyncs), accepted)
	m["durable.frames_per_append"] = ratio(float64(frames), float64(appends))
	m["durable.bytes_per_report"] = ratio(float64(bytes), accepted)
	tableLayers(o, tr)
}

// handlerLayers fills the client and batch-handler metrics; batches is
// how many batch uploads the clients made.
func handlerLayers(o *outcome, tr *tracer, cs ingest.ClientStats, batches float64) {
	m := o.metrics
	handlers := durations(tr.all("ingest.handler"))
	m["ingest.posts_per_batch"] = ratio(float64(cs.Posts), batches)
	m["ingest.not_owner_retries"] = float64(cs.NotOwnerRetries)
	m["ingest.post_errors"] = float64(cs.PostErrors)
	m["ingest.handler_p50_us"] = us(pct(handlers, 0.5))
	m["ingest.handler_p99_us"] = us(pct(handlers, 0.99))
	reports := float64(cs.Accepted + cs.Rejected)
	var self time.Duration
	for _, d := range tr.selfTimes("ingest.handler", "ingest.sink") {
		self += d
	}
	m["ingest.handler_self_us_per_report"] = ratio(us(self), reports)
	m["ingest.sink_us_per_report"] = ratio(us(sum(tr.all("ingest.sink"))), reports)
	m["core.rejected"] = float64(cs.Rejected)
}

// tableLayers fills the table-read metrics.
func tableLayers(o *outcome, tr *tracer) {
	m := o.metrics
	m["ingest.drain_ms"] = ms(pct(durations(tr.all("ingest.drain")), 0.5))
	m["store.merge_ms"] = ms(pct(durations(tr.all("store.merge")), 0.5))
	m["analysis.render_ms"] = ms(pct(durations(tr.all("analysis.render")), 0.5))
}
