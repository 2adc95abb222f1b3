// Command perfbench is the repository's end-to-end benchmark: it drives
// the real cmd/mitmd, cmd/reportd and examples/live-wire/origin
// processes (or tlsfof.RunStudy in-process, for the study workload) with
// a seeded closed-loop load, checks every output against an in-process
// reference computation, and prints one JSON result line.
//
// Usage (normally through perfbench/run.sh, which builds the binaries):
//
//	perfbench -bin DIR -work DIR -root DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of the
// untraced processes. With --trace 1 the run splits its seconds between a
// short untraced pass and a traced pass over the same topology built in
// one process, and the result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names and units.
var endToEnd = []metricDef{
	{"reports_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"setup_s", "s"},
	{"setup_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run; BENCHMARK.json lists the same
// names and units. A layer a workload never reaches reports 0.
var perLayer = []metricDef{
	{"tlswire.dial_p50_us", "us"},
	{"tlswire.probe_p50_us", "us"},
	{"tlswire.probe_p99_us", "us"},
	{"proxyengine.conn_p50_us", "us"},
	{"proxyengine.upstream_p50_us", "us"},
	{"proxyengine.self_p50_us", "us"},
	{"proxyengine.forge_hit_ratio", "ratio"},
	{"proxyengine.forges", "count"},
	{"certgen.keygen_s", "s"},
	{"certgen.mint_ms", "ms"},
	{"ingest.encode_us_per_batch", "us"},
	{"ingest.posts_per_batch", "count"},
	{"ingest.not_owner_retries", "count"},
	{"ingest.post_errors", "count"},
	{"ingest.handler_p50_us", "us"},
	{"ingest.handler_p99_us", "us"},
	{"ingest.handler_self_us_per_report", "us"},
	{"ingest.sink_us_per_report", "us"},
	{"ingest.enqueued", "count"},
	{"ingest.ingested", "count"},
	{"ingest.dropped", "count"},
	{"ingest.drain_ms", "ms"},
	{"core.rejected", "count"},
	{"chaincache.hit_ratio", "ratio"},
	{"chaincache.derives", "count"},
	{"durable.fsyncs_per_1k_reports", "count"},
	{"durable.frames_per_append", "count"},
	{"durable.bytes_per_report", "B"},
	{"store.merge_ms", "ms"},
	{"analysis.render_ms", "ms"},
	{"cluster.refused_share", "ratio"},
	{"cluster.node_us_per_report", "us"},
	{"cluster.ack_waits", "count"},
	{"cluster.ack_timeouts", "count"},
	{"cluster.repl_frames_applied", "count"},
	{"study.run_s", "s"},
	{"study.sink_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"drift.forge_hits_per_1k", "count"},
	{"drift.memo_hits_per_1k", "count"},
	{"drift.fsyncs_per_1k", "count"},
	{"drift.not_owner_per_1k", "count"},
}

// runCtx is one invocation's settings.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // built binaries
	work     string // scratch root for this run (data dirs, logs)
	root     string // repository checkout
	conns    int    // closed-loop connections = nproc
	// tableEvery is the flood workloads' read ratio: every tableEvery-th
	// operation is a table read (0: none).
	tableEvery int
	dirs       int
}

// dir makes a fresh directory under the run's work root.
func (c *runCtx) dir(name string) (string, error) {
	c.dirs++
	d := filepath.Join(c.work, fmt.Sprintf("%02d-%s", c.dirs, name))
	return d, os.MkdirAll(d, 0o755)
}

// window is the measured time of one pass: the whole run untraced, or a
// share of it when the run is split into untraced and traced passes.
func (c *runCtx) window(share float64) time.Duration {
	return time.Duration(share * float64(c.seconds) * float64(time.Second))
}

// outcome collects what a run measured and every failed check.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	detail            map[string]any
}

// record appends v to the detail record's list under key: one entry per
// measured pass.
func (o *outcome) record(key string, v any) {
	list, _ := o.detail[key].([]any)
	o.detail[key] = append(list, v)
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps a --workload name to its runner.
var workloads = map[string]func(*runCtx, *outcome) error{
	"live-probe":    runLiveProbe,
	"report-flood":  func(c *runCtx, o *outcome) error { return runFlood(c, o, floodMode{}) },
	"cluster-flood": func(c *runCtx, o *outcome) error { return runFlood(c, o, floodMode{clustered: true}) },
	"cluster-split": func(c *runCtx, o *outcome) error { return runFlood(c, o, floodMode{clustered: true, byOwner: true}) },
	"study":         runStudy,
}

// instances is how many times an untraced run sets up and measures its
// topology, each for an equal share of the run, so that one topology
// that landed badly on a shared host does not decide the result. Set-up
// time is the median of as many set-ups: a set-up that mints RSA keys
// varies with the prime search, and a median of five holds that spread
// where three did not.
const instances = 5

// untracedPass is the share of the run's seconds each untraced instance
// measures and how many instances there are: a fifth each for five
// untraced; 40% for one when a traced pass follows.
func (c *runCtx) untracedPass() (share float64, n int) {
	if c.trace {
		return 0.4, 1
	}
	return 1.0 / instances, instances
}

// tracedShare is the share of a traced run's seconds the traced pass
// measures.
const tracedShare = 0.6

// deadline bounds a whole invocation: every process is stopped before it.
const deadline = 170 * time.Second

func main() {
	var c runCtx
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: live-probe, report-flood, cluster-flood or study")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&c.bin, "bin", "", "directory holding the built mitmd, reportd and origin")
	flag.StringVar(&c.work, "work", "", "scratch directory for data dirs and logs")
	flag.StringVar(&c.root, "root", ".", "repository checkout (for testdata/golden)")
	flag.IntVar(&c.tableEvery, "table-every", defaultTableEvery, "flood workloads: every n-th operation reads the tables (0: no reads, and no aux_p50_ms)")
	flag.Parse()
	c.trace = trace == 1
	c.conns = runtime.NumCPU()
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || c.tableEvery < 0 || c.bin == "" || c.work == "" || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", c.workload)
		flag.Usage()
		os.Exit(2)
	}
	c.work = filepath.Join(c.work, fmt.Sprintf("%s-%d", c.workload, os.Getpid()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fail(&c, err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fail(&c, fmt.Errorf("interrupted by %v", s))
		case <-time.After(deadline):
			fail(&c, fmt.Errorf("run exceeded %v", deadline))
		}
	}()

	o := &outcome{metrics: make(map[string]float64), detail: make(map[string]any)}
	o.detail["host"] = hostRecord(c.work)
	o.detail["workload"] = c.workload
	o.detail["seed"] = c.seed
	o.detail["connections"] = c.conns
	if err := run(&c, o); err != nil {
		fail(&c, err)
	}
	killAll()
	os.RemoveAll(c.work)

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !c.trace {
			o.check(false, "metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	sort.Strings(o.problems)
	o.detail["problems"] = o.problems
	detail, _ := json.Marshal(map[string]any{"detail": o.detail})
	fmt.Println(string(detail))
	res, _ := json.Marshal(map[string]any{
		"correct":   len(o.problems) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(res))
	if len(o.problems) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d output checks failed:\n  %s\n", len(o.problems), strings.Join(o.problems, "\n  "))
		os.Exit(1)
	}
}

// fail stops every process, reports err and exits without a result.
func fail(c *runCtx, err error) {
	killAll()
	if c.work != "" {
		os.RemoveAll(c.work)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
	os.Exit(1)
}

// hostRecord describes the machine a result came from. Compare results
// only when these records match: fsync cost alone differs by orders of
// magnitude between tmpfs and disk.
func hostRecord(dataDir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"network":    "loopback",
		"data_fs":    fsType(dataDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// tally is the accounting of one run's operations and reports, kept by
// the load generator and reconciled against the client and the servers.
type tally struct {
	ops, opsFailed                               int64
	reports, accepted, rejected, refused, failed int64
}

// loadResult is what one measured pass produced.
type loadResult struct {
	primary  []sample // probes, batch uploads, or study cycles
	aux      []sample // uploads (live-probe), table reads (floods), table renders (study)
	accepted int64    // reports the system accepted
	elapsed  time.Duration
	window   time.Duration
	tally    tally
	// perOpRate rates throughput per operation rather than per second,
	// for operations too long to fill one-second buckets evenly.
	perOpRate bool
	// overallRate rates throughput as all accepted reports over the
	// pass's elapsed time, for operations so long that one-second buckets
	// would count a handful each.
	overallRate bool
	// noAux marks a pass run without auxiliary operations on purpose.
	noAux bool
}

// tailQuantiles fixes each workload's latency_tail_ms percentile: the
// highest of tailLadder that leaves at least ten samples beyond it at the
// sample counts a 20-second run gives on a 2-core host. It is
// fixed rather than chosen per run so that a faster program, which
// times more operations, is not charged a higher percentile.
var tailQuantiles = map[string]float64{
	"live-probe":    0.99,
	"report-flood":  0.99,
	"cluster-flood": 0.99,
	"cluster-split": 0.90,
	"study":         0.75,
}

// opNames names each workload's primary and auxiliary operation and its
// own throughput, for the detail record's metrics under the names of the
// paper's loop.
var opNames = map[string]struct{ primary, aux, rate string }{
	"live-probe":    {"probe", "upload", "probes_per_s"},
	"report-flood":  {"upload", "table", "reports_per_s"},
	"cluster-flood": {"upload", "table", "reports_per_s"},
	"cluster-split": {"post", "batch", "reports_per_s"},
	"study":         {"cycle", "table", "tests_per_s"},
}

// instance is one measured topology of an untraced run.
type instance struct {
	load      *loadResult
	setupRSS  float64 // summed resident memory of the system under test when set-up ended
	loadedRSS float64 // summed peak RSS at exit, after the load
}

// e2eMetrics fills the end-to-end metrics from the measured instances:
// throughput and the set-up figures are medians over the instances, and
// latencies are percentiles of their pooled samples, which one instance
// alone has too few of for the tail. It also fills the detail record's
// named metrics: each operation's median and the highest ladder
// percentile its pooled sample count supports, failed_share, and the
// peak RSS under load.
func e2eMetrics(o *outcome, workload string, insts []instance, setups []float64) {
	var rates, setupRSS, loadedRSS []float64
	var primary, aux []sample
	var accepted int64
	var elapsed time.Duration
	window := insts[0].load.window
	for _, in := range insts {
		r := in.load
		switch {
		case r.perOpRate:
			rates = append(rates, opRate(r.primary))
		case r.overallRate:
			rates = append(rates, ratio(float64(r.accepted), r.elapsed.Seconds()))
		default:
			rates = append(rates, bucketRate(r.primary, r.window))
		}
		o.check(len(r.aux) > 0 || r.noAux, "no auxiliary operations were timed")
		setupRSS = append(setupRSS, in.setupRSS)
		loadedRSS = append(loadedRSS, in.loadedRSS)
		primary = append(primary, r.primary...)
		aux = append(aux, r.aux...)
		accepted += r.accepted
		elapsed += r.elapsed
		o.attempted += r.tally.ops
		o.failed += r.tally.opsFailed
	}
	sortSamples(primary)
	sortSamples(aux)
	o.metrics["reports_per_s"] = median(rates)
	o.metrics["latency_p50_ms"] = ms(quantile(primary, 0.5, window))
	// A slower program times fewer operations. The nearest-rank tail is
	// still defined, so a shortfall below ten samples beyond it is
	// recorded, not failed: it is a regression to measure, not a wrong
	// output.
	q := tailQuantiles[workload]
	o.metrics["latency_tail_ms"] = ms(quantile(primary, q, window))
	o.detail["tail"] = map[string]any{"quantile": q, "samples": len(primary), "beyond": beyond(len(primary), q),
		"short": beyond(len(primary), q) < 10}
	o.metrics["aux_p50_ms"] = ms(quantile(aux, 0.5, window))
	o.metrics["setup_s"] = median(setups)
	o.metrics["setup_rss_mb"] = median(setupRSS)

	names := opNames[workload]
	named := map[string]map[string]any{}
	put := func(name, unit string, v float64) { named[name] = map[string]any{"value": v, "unit": unit} }
	put(names.rate, "1/s", o.metrics["reports_per_s"])
	put("reports_per_s_overall", "1/s", ratio(float64(accepted), elapsed.Seconds()))
	for _, op := range []struct {
		name string
		s    []sample
	}{{names.primary, primary}, {names.aux, aux}} {
		put(op.name+"_p50_ms", "ms", ms(quantile(op.s, 0.5, window)))
		if q, ok := tailQuantile(len(op.s)); ok && q > 0.5 {
			put(fmt.Sprintf("%s_p%g_ms", op.name, 100*q), "ms", ms(quantile(op.s, q, window)))
		}
		put(op.name+"_count", "count", float64(len(op.s)))
	}
	put("failed_share", "ratio", failedShare(append(append([]sample(nil), primary...), aux...)))
	put("setup_s", "s", o.metrics["setup_s"])
	put("setup_rss_mb", "MB", o.metrics["setup_rss_mb"])
	put("peak_rss_mb", "MB", median(loadedRSS))
	o.detail["metrics"] = named
	o.detail["instances"] = map[string]any{"reports_per_s": rates, "setup_s": setups, "setup_rss_mb": setupRSS}
}

// reconcile checks attempted = accepted + rejected + refused + failed
// on the generator's own tally.
func reconcile(o *outcome, t tally) {
	o.check(t.reports == t.accepted+t.rejected+t.refused+t.failed,
		"reconciliation: %d reports attempted, but %d accepted + %d rejected + %d refused + %d failed",
		t.reports, t.accepted, t.rejected, t.refused, t.failed)
	o.record("tally", map[string]int64{
		"ops": t.ops, "ops_failed": t.opsFailed, "reports": t.reports, "accepted": t.accepted,
		"rejected": t.rejected, "refused": t.refused, "failed": t.failed,
	})
}

// per1k scales a count to one thousand reports.
func per1k(count, reports float64) float64 { return ratio(1000*count, reports) }

// drift compares a counter the binaries expose on /metrics (untraced
// pass) with the same count read from the layer's Stats() in the traced
// pass, both per 1k reports, and records the difference.
func drift(o *outcome, name string, scraped, traced float64) {
	o.metrics["drift."+name] = traced - scraped
	o.detail["drift."+name] = map[string]float64{"scraped_per_1k": scraped, "traced_per_1k": traced}
}
