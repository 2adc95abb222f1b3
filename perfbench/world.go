package main

import (
	"crypto/sha256"
	"crypto/x509/pkix"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/x509util"
)

// proxiedOneIn is study 2's interception rate: 51,405 of 12.39M tests,
// about 1 in 250 (§4).
const proxiedOneIn = 250

// floodProducts forge the proxied reports of the flood workloads: the
// four live-wire profiles (an upstream-validating AV, a masking parental
// filter, shared-key malware, a whale-whitelisting AV) plus three more of
// Table 4's issuers.
var floodProducts = []string{
	"Bitdefender", "Kurupira.NET", "IopFailZeroAccessCreate", "Kaspersky Lab ZAO",
	"ESET spol. s r. o.", "Fortinet", "Sweesh LTD",
}

// studyHosts is study 2's probe list, the hosts every workload draws from.
func studyHosts() []string {
	var out []string
	for _, h := range hostdb.SecondStudyHosts() {
		out = append(out, h.Name)
	}
	return out
}

// rng is splitmix64: every draw of the generator is a pure function of
// (seed, stream, index), so a seed fixes the whole report stream and
// probe order however far a run gets.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream, index int) *rng {
	r := &rng{s: seed ^ 0x9e3779b97f4a7c15*uint64(stream+1)}
	r.s ^= r.next() + uint64(index)*0xbf58476d1ce4e5b9
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// probeHost is the SNI that connection conn presents on its k-th probe.
func probeHost(seed uint64, hosts []string, conn, k int) string {
	return hosts[newRNG(seed, 1000+conn, k).intn(len(hosts))]
}

// world is the minted certificate material of the flood workloads: an
// authoritative chain per study host and, per flood product, the chain it
// forges for each host.
type world struct {
	hosts    []string
	auth     map[string][][]byte
	products []string
	forged   []map[string][][]byte // by product index, then host

	keygen time.Duration   // RSA key generation inside set-up
	mints  []time.Duration // cold Engine.Decide calls
}

// mintWorld mints the flood workloads' chains. Key material is random
// (RSA key generation does not take a seed), but which chain a report
// carries is decided by the seeded generator alone.
func mintWorld() (*world, error) {
	w := &world{hosts: studyHosts(), auth: make(map[string][][]byte), products: floodProducts}
	pool := certgen.NewKeyPool(1, nil)
	t0 := time.Now()
	if err := <-pool.Prewarm(512, 1024, 2048); err != nil {
		return nil, err
	}
	w.keygen = time.Since(t0)
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Benchmark Root CA", Organization: []string{"Benchmark Authority"}},
		Pool:    pool,
	})
	if err != nil {
		return nil, err
	}
	for _, h := range w.hosts {
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: h, Pool: pool})
		if err != nil {
			return nil, err
		}
		w.auth[h] = leaf.ChainDER
	}
	for _, name := range w.products {
		p := classify.ProductByName(name)
		if p == nil {
			return nil, fmt.Errorf("product %q missing from the classify database", name)
		}
		profile := proxyengine.FromProduct(p)
		t0 := time.Now()
		e, err := proxyengine.New(profile, proxyengine.Options{Pool: pool})
		if err != nil {
			return nil, err
		}
		w.keygen += time.Since(t0) // the engine's CA key, when its size is new
		chains := make(map[string][][]byte)
		for _, h := range w.hosts {
			upstream, err := x509util.ParseChain(w.auth[h])
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			d, err := e.Decide(h, upstream, w.auth[h])
			w.mints = append(w.mints, time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("%s forging %s: %w", name, h, err)
			}
			if d.Action != proxyengine.ActionIntercept {
				// Whitelisted hosts pass through: the client sees the
				// authoritative chain.
				chains[h] = w.auth[h]
				continue
			}
			chains[h] = d.ChainDER
		}
		w.forged = append(w.forged, chains)
	}
	return w, nil
}

// writeRefdir writes one <host>.pem per authoritative chain, the layout
// reportd's -refdir loads.
func (w *world) writeRefdir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for h, chain := range w.auth {
		if err := os.WriteFile(filepath.Join(dir, h+".pem"), x509util.EncodeChainPEM(chain), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// batchSize is the ingest client's default batch, the unit a flood
// connection posts.
const batchSize = ingest.DefaultClientBatch

// batch fills dst with report batch k of connection conn: hosts drawn
// uniformly from study 2's list, one report in proxiedOneIn carrying a
// flood product's forgery, the rest the authoritative chain.
func (w *world) batch(dst []ingest.Report, seed uint64, conn, k int) []ingest.Report {
	r := newRNG(seed, conn, k)
	dst = dst[:0]
	for i := 0; i < batchSize; i++ {
		h := w.hosts[r.intn(len(w.hosts))]
		chain := w.auth[h]
		if r.intn(proxiedOneIn) == 0 {
			chain = w.forged[r.intn(len(w.forged))][h]
		}
		dst = append(dst, ingest.Report{Host: h, ChainDER: chain})
	}
	return dst
}

// streamDigest hashes which host and which chain slot every report of
// the first n batches of each connection carries: equal seeds must give
// equal digests. (The chains themselves are random key material; RSA key
// generation takes no seed.)
func (w *world) streamDigest(seed uint64, conns, n int) string {
	h := sha256.New()
	var buf []ingest.Report
	for c := 0; c < conns; c++ {
		for k := 0; k < n; k++ {
			buf = w.batch(buf, seed, c, k)
			for _, r := range buf {
				fmt.Fprintf(h, "%s|%d\n", r.Host, w.slot(r))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// slot names the chain a report carries: -1 for the authoritative chain,
// else the forging product's index.
func (w *world) slot(r ingest.Report) int {
	if &r.ChainDER[0] == &w.auth[r.Host][0] {
		return -1
	}
	for i, f := range w.forged {
		if &r.ChainDER[0] == &f[r.Host][0] {
			return i
		}
	}
	return -2
}

// probeOrderDigest hashes the first n SNIs of each connection's probe
// sequence.
func probeOrderDigest(seed uint64, hosts []string, conns, n int) string {
	h := sha256.New()
	for c := 0; c < conns; c++ {
		for k := 0; k < n; k++ {
			fmt.Fprintf(h, "%d|%s\n", c, probeHost(seed, hosts, c, k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
