package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"tlsfof"
	"tlsfof/internal/analysis"
	"tlsfof/internal/certgen"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
)

// studyConfig is the fixed study the study workload runs: study 2 at the
// golden fixtures' seed and scale, so every cycle is checked against
// testdata/golden. The study's inputs are this config; --seed does not
// change them.
func studyConfig(pool *certgen.KeyPool) tlsfof.StudyConfig {
	return tlsfof.StudyConfig{Study: clientpop.Study2, Seed: 2014, Scale: 0.01, Pool: pool}
}

// studyArtifacts lists every rendered table with its golden fixture name,
// rendered as the root package's golden test renders them.
var studyArtifacts = []struct {
	name   string
	render func(*bytes.Buffer, *study.Result) error
}{
	{"table1.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table1(b, r.Hosts) }},
	{"table2.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table2(b, r.Outcomes, r.Total) }},
	{"table3.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table3(b, r.Store, r.Geo) }},
	{"table4.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table4(b, r.Store, 0) }},
	{"table5.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table5(b, r.Store) }},
	{"table6.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table6(b, r.Store) }},
	{"table7.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table7(b, r.Store, r.Geo) }},
	{"table8.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Table8(b, r.Store) }},
	{"negligence.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Negligence(b, r.Store) }},
	{"products.txt", func(b *bytes.Buffer, r *study.Result) error { return analysis.Products(b, r.Store, 0) }},
}

// studyCycle is one run of the study and its table renders.
type studyCycle struct {
	run     time.Duration
	renders []time.Duration
	total   time.Duration
	tested  int64
	digest  string
	tables  map[string][]byte
}

// timedStore is the traced study's sink: the study's own store, with the
// time spent inside it summed.
type timedStore struct {
	db   *store.DB
	busy time.Duration
}

func (s *timedStore) Ingest(m core.Measurement) {
	t0 := time.Now()
	s.db.Ingest(m)
	s.busy += time.Since(t0)
}

// cycle runs the study once and renders every table. With sink set, the
// measurements go through it (the traced pass).
func cycle(pool *certgen.KeyPool, sink *timedStore) (*studyCycle, error) {
	cfg := studyConfig(pool)
	if sink != nil {
		cfg.Sink = sink
	}
	t0 := time.Now()
	res, err := tlsfof.RunStudy(cfg)
	if err != nil {
		return nil, err
	}
	sc := &studyCycle{run: time.Since(t0), tables: make(map[string][]byte)}
	if sink != nil {
		res.Store = sink.db
	}
	h := sha256.New()
	for _, a := range studyArtifacts {
		var b bytes.Buffer
		r0 := time.Now()
		if err := a.render(&b, res); err != nil {
			return nil, fmt.Errorf("render %s: %w", a.name, err)
		}
		sc.renders = append(sc.renders, time.Since(r0))
		sc.tables[a.name] = b.Bytes()
		h.Write(b.Bytes())
	}
	sc.total = time.Since(t0)
	sc.tested = int64(res.Store.Totals().Tested)
	sc.digest = hex.EncodeToString(h.Sum(nil))
	return sc, nil
}

// loadGolden reads the fixtures the study's tables must match.
func loadGolden(root string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, a := range studyArtifacts {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", a.name))
		if err != nil {
			return nil, err
		}
		out[a.name] = b
	}
	return out, nil
}

// checkGolden compares a cycle's tables with the fixtures.
func checkGolden(o *outcome, sc *studyCycle, golden map[string][]byte) {
	var bad []string
	for name, want := range golden {
		if !bytes.Equal(sc.tables[name], want) {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	o.check(len(bad) == 0, "study tables differ from testdata/golden: %v", bad)
}

// studyPass cycles the study for window, checking every cycle against
// the first one's totals and digest.
func studyPass(o *outcome, pool *certgen.KeyPool, window time.Duration, want *studyCycle, golden map[string][]byte, sink func() *timedStore) (*loadResult, []*studyCycle, []*timedStore, error) {
	r := &loadResult{window: window, perOpRate: true}
	var cycles []*studyCycle
	var sinks []*timedStore
	start := time.Now()
	for time.Since(start) < window {
		var s *timedStore
		if sink != nil {
			s = sink()
			sinks = append(sinks, s)
		}
		sc, err := cycle(pool, s)
		if err != nil {
			return nil, nil, nil, err
		}
		cycles = append(cycles, sc)
		ok := sc.tested == want.tested && sc.digest == want.digest
		r.primary = append(r.primary, sample{d: sc.total, failed: !ok, at: time.Since(start), n: sc.tested})
		r.aux = append(r.aux, sample{d: sumDur(sc.renders)})
		r.tally.ops++
		r.tally.reports += sc.tested
		if ok {
			r.accepted += sc.tested
			r.tally.accepted += sc.tested
		} else {
			r.tally.opsFailed++
			r.tally.failed += sc.tested
			checkGolden(o, sc, golden)
		}
	}
	r.elapsed = time.Since(start)
	o.check(len(cycles) > 0, "no study cycle completed")
	return r, cycles, sinks, nil
}

func runStudy(c *runCtx, o *outcome) error {
	golden, err := loadGolden(c.root)
	if err != nil {
		return err
	}
	o.detail["topology"] = "tlsfof.RunStudy in-process (study 2, seed 2014, scale 0.01), then every table rendered"
	// One cold cycle mints the study's keys into a fresh pool. Its RSA
	// prime search varies run to run and is reported apart (keygen_s),
	// not in setup_s.
	t0 := time.Now()
	pool := certgen.NewKeyPool(4, nil)
	first, err := cycle(pool, nil)
	if err != nil {
		return err
	}
	cold := time.Since(t0)
	checkGolden(o, first, golden)
	setupRSS, err := statusRSS("/proc/self/status")
	if err != nil {
		return err
	}

	share, n := c.untracedPass()
	var insts []instance
	var setups []float64
	var r *loadResult
	for i := 0; i < n; i++ {
		// Set-up is the steady part: one study run and render on the
		// minted keys, which must equal the cold cycle's.
		t0 := time.Now()
		sc, err := cycle(pool, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.check(sc.tested == first.tested && sc.digest == first.digest,
			"set-up cycle %d: %d tests, digest %s; the cold cycle had %d, %s", i, sc.tested, sc.digest, first.tested, first.digest)
		if r, _, _, err = studyPass(o, pool, c.window(share), first, golden, nil); err != nil {
			return err
		}
		reconcile(o, r.tally)
		insts = append(insts, instance{load: r, setupRSS: setupRSS})
	}
	keygen := cold.Seconds() - median(append([]float64(nil), setups...))
	o.detail["keygen_s"] = keygen
	o.detail["cold_setup_s"] = cold.Seconds()
	o.detail["tests_per_cycle"] = first.tested
	o.detail["table_sha256"] = first.digest
	if !c.trace {
		loadedRSS, err := peakRSS()
		if err != nil {
			return err
		}
		for i := range insts {
			insts[i].loadedRSS = loadedRSS
		}
		e2eMetrics(o, c.workload, insts, setups)
		return nil
	}
	o.attempted += r.tally.ops
	o.failed += r.tally.opsFailed
	untraced := ratio(float64(r.accepted), r.elapsed.Seconds())
	tr, tcycles, sinks, err := studyPass(o, pool, c.window(tracedShare), first, golden, func() *timedStore {
		return &timedStore{db: store.New(0)}
	})
	if err != nil {
		return err
	}
	reconcile(o, tr.tally)
	o.attempted += tr.tally.ops
	o.failed += tr.tally.opsFailed
	var runSum, busy time.Duration
	var renders []time.Duration
	var runs []float64
	for i, sc := range tcycles {
		runSum += sc.run
		busy += sinks[i].busy
		runs = append(runs, sc.run.Seconds())
		renders = append(renders, sc.renders...)
	}
	m := o.metrics
	m["study.run_s"] = median(runs)
	m["study.sink_share"] = ratio(float64(busy), float64(runSum))
	m["analysis.render_ms"] = ms(pct(fromDurations(renders), 0.5))
	m["certgen.keygen_s"] = keygen
	m["trace.overhead_share"] = 1 - ratio(ratio(float64(tr.accepted), tr.elapsed.Seconds()), untraced)
	return nil
}

// peakRSS is the benchmark process's peak RSS in MiB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
