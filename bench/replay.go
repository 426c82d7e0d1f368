package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	farmer "repro"
	"repro/internal/bitset"
	"repro/internal/serve"
	"repro/internal/store"
)

// Replay caps: the in-process replay walks the first third of the plan
// and stops early after this many mined requests or requests in all, so a
// traced run stays within about a minute.
const (
	replayMaxMined = 400
	replayMaxReqs  = 5000
)

// mineRun is one in-process runner invocation.
type mineRun struct {
	miner    string
	parallel bool  // FARMER on the parallel scheduler
	budget   int64 // max_millis of a budgeted top-k run
	pair     int   // scaleup: index of the parallel run this sequential run repeats; -1 otherwise
	selfNS   float64
	wallNS   float64
	stats    farmer.MineStats
}

// replayRun is what the in-process replay measured.
type replayRun struct {
	runs []mineRun
	// prefix is how many plan requests were replayed; queries of them were
	// mined, taking inProcessMS in all (Entry, BuildRunner and the runner).
	prefix, queries int
	inProcessMS     float64
	storeBytes      []float64
}

// replay registers the workload's datasets and replays a prefix of its
// request list in-process, with spans around the public call of each
// layer: ReadTransactions, Prepare, store Encode/Decode and Registry
// Put/Entry for the registry path; BuildRunner and the RunnerFunc, with
// json.Marshal timed inside its emit callback, for every mined request; and
// Server.ServeHTTP into a ResponseRecorder for every repeat of a primed
// answer. Nothing inside the program is instrumented. Like the daemon
// lives, the registry is durable for a restart workload and RAM-only
// otherwise.
func (b *bench) replay(ctx context.Context, w *workload, plan []Req, tr *tracer) (*replayRun, error) {
	reg := serve.NewRegistry()
	var dir string
	var st *store.Store
	if w.restart {
		var err error
		if dir, err = os.MkdirTemp(b.work, w.name+"-replay-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{CacheBytes: store.DefaultCacheBytes}); err != nil {
			return nil, err
		}
		defer func() { st.Close() }()
		reg = serve.NewRegistryWithStore(st)
	}
	rp := &replayRun{}
	// Set-up registrations, three rounds for steadier medians.
	for round := 0; round < 3; round++ {
		for _, name := range w.registers(b.fx) {
			if err := b.register(tr, reg, rp, name, -1); err != nil {
				return nil, err
			}
		}
	}
	if w.restart {
		// The restart path: reopen the store and resolve each dataset, which
		// decodes its snapshot lazily.
		if err := st.Close(); err != nil {
			return nil, err
		}
		var err error
		if st, err = store.Open(dir, store.Options{CacheBytes: store.DefaultCacheBytes}); err != nil {
			return nil, err
		}
		reg = serve.NewRegistryWithStore(st)
		for _, name := range w.registers(b.fx) {
			if err := tr.timed("serve.Registry.Entry", -1, -1, func() error { _, _, _, err := reg.Entry(name); return err }); err != nil {
				return nil, err
			}
		}
	}

	mgr := serve.NewManager(reg, 0, 64, serve.DefaultCacheBytes)
	defer mgr.Shutdown(context.Background())
	srv := serve.NewServer(mgr)
	var etags []string
	if w.primeHot {
		for _, spec := range b.fx.hot {
			if _, err := b.mine(ctx, tr, reg, rp, &spec, -1, -1); err != nil {
				return nil, err
			}
			etag, err := primeInProcess(srv, &spec)
			if err != nil {
				return nil, err
			}
			etags = append(etags, etag)
		}
	}

	mined := 0
	for i := range plan {
		if mined >= replayMaxMined || i >= replayMaxReqs || i >= max(len(plan)/3, 1) {
			break
		}
		r := &plan[i]
		rp.prefix = i + 1
		switch r.Kind {
		case kindPut:
			if err := b.register(tr, reg, rp, r.Put, i); err != nil {
				return nil, err
			}
		case kindRepeat:
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(mustMarshal(r.Spec)))
			if r.IfNoneMatch {
				req.Header.Set("If-None-Match", etags[r.Hot])
			}
			rec := httptest.NewRecorder()
			tr.timed("serve.Server.ServeHTTP", -1, i, func() error { srv.ServeHTTP(rec, req); return nil })
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
				return nil, fmt.Errorf("in-process repeat %d: status %d", i, rec.Code)
			}
		default:
			mined++
			start := time.Now()
			par, err := b.mine(ctx, tr, reg, rp, r.Spec, i, -1)
			if err != nil {
				return nil, err
			}
			rp.queries++
			rp.inProcessMS += float64(time.Since(start)) / 1e6
			if r.Kind == kindScale {
				// The same spec on the sequential miner, for the speedup.
				seq := *r.Spec
				seq.Workers = 0
				if _, err := b.mine(ctx, tr, reg, rp, &seq, i, par); err != nil {
					return nil, err
				}
			}
		}
	}
	return rp, nil
}

func mustMarshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // specs are plain structs and always marshal
	}
	return raw
}

// primeInProcess mines spec through the in-process server and asks again
// until the answer is a cached replay, returning its ETag.
func primeInProcess(srv *serve.Server, spec *serve.QuerySpec) (string, error) {
	body := mustMarshal(spec)
	for try := 0; try < 100; try++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("in-process priming of %s on %s: status %d", spec.Miner, spec.Dataset, rec.Code)
		}
		if rec.Header().Get("X-Cache") == "HIT" {
			return rec.Header().Get("ETag"), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("in-process priming of %s on %s: never cached", spec.Miner, spec.Dataset)
}

// register runs the registry path of one dataset under a "bench.register"
// span: parse, Prepare, store Encode and Decode as separate calls, then
// Registry.Put (which prepares again and, over a store, writes it).
func (b *bench) register(tr *tracer, reg *serve.Registry, rp *replayRun, name string, req int) error {
	root := tr.begin("bench.register", -1, req)
	defer tr.end(root)
	var d *farmer.Dataset
	var snap *farmer.Snapshot
	var enc []byte
	steps := []struct {
		name string
		f    func() error
	}{
		{"farmer.ReadTransactions", func() (err error) {
			d, err = farmer.ReadTransactions(bytes.NewReader(b.fx.sets[name].text))
			return err
		}},
		{"farmer.Prepare", func() (err error) { snap, err = farmer.Prepare(d); return err }},
		{"store.Encode", func() (err error) { enc, err = store.Encode(snap); return err }},
		{"store.Decode", func() error { _, err := store.Decode(enc); return err }},
		{"serve.Registry.Put", func() error { return reg.Put(name, d) }},
	}
	for _, s := range steps {
		if err := tr.timed(s.name, root, req, s.f); err != nil {
			return fmt.Errorf("replay %s of %s: %w", s.name, name, err)
		}
	}
	rp.storeBytes = append(rp.storeBytes, float64(len(enc)))
	return nil
}

// mine runs one spec through Registry.Entry, BuildRunner and the returned
// RunnerFunc, timing json.Marshal inside the emit callback, and records the
// run's engine statistics. It returns the run's index in rp.runs.
func (b *bench) mine(ctx context.Context, tr *tracer, reg *serve.Registry, rp *replayRun, spec *serve.QuerySpec, req, pair int) (int, error) {
	root := tr.begin("bench.query", -1, req)
	defer tr.end(root)
	var d *farmer.Dataset
	var snap *farmer.Snapshot
	if err := tr.timed("serve.Registry.Entry", root, req, func() (err error) { d, snap, _, err = reg.Entry(spec.Dataset); return err }); err != nil {
		return 0, err
	}
	var run serve.RunnerFunc
	if err := tr.timed("serve.BuildRunner", root, req, func() (err error) { run, err = serve.BuildRunner(d, snap, *spec); return err }); err != nil {
		return 0, err
	}
	id := tr.begin("serve.RunnerFunc", root, req)
	var encNS int64
	t0 := time.Now()
	res, err := run(ctx, func(v any) error {
		e := tr.begin("json.Marshal", id, req)
		t := time.Now()
		_, err := json.Marshal(v)
		encNS += time.Since(t).Nanoseconds()
		tr.end(e)
		return err
	})
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("replay %s on %s: %w", spec.Miner, spec.Dataset, err)
	}
	m := mineRun{miner: spec.Miner, budget: spec.MaxMillis, pair: pair, stats: res.Stats(),
		wallNS: float64(wall.Nanoseconds()), selfNS: float64(wall.Nanoseconds() - encNS),
		parallel: spec.Miner == "farmer" && (spec.Workers > 0 || spec.Workers < 0 && d.NumRows() >= farmer.ParallelFallbackRows)}
	rp.runs = append(rp.runs, m)
	return len(rp.runs) - 1, nil
}

// metrics turns the replay's spans and runs into per-layer metrics. A
// metric whose layer the workload never reached is left out.
func (rp *replayRun) metrics(tr *tracer) map[string]Metric {
	out := map[string]Metric{}
	set := func(name, unit string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = Metric{Value: v, Unit: unit}
		}
	}
	dur := tr.durations()
	p50ms := func(name string) float64 { return percentile(dur[name], 50) / 1e6 }
	set("serve.encode_us_per_record", "us", mean(dur["json.Marshal"])/1e3)
	set("serve.put_ms_p50", "ms", p50ms("serve.Registry.Put"))
	set("serve.replay_us_p50", "us", percentile(dur["serve.Server.ServeHTTP"], 50)/1e3)
	set("dataset.parse_ms", "ms", p50ms("farmer.ReadTransactions"))
	set("dataset.prepare_ms", "ms", p50ms("farmer.Prepare"))
	set("store.encode_ms", "ms", p50ms("store.Encode"))
	set("store.decode_ms", "ms", p50ms("store.Decode"))
	set("store.bytes", "bytes", mean(rp.storeBytes))

	// totals sums self time and counters over the runs that match.
	type totals struct {
		n                            int
		selfNS, nodes, emitted, prun float64
		setup, search, finish, arena float64
		selfMS                       []float64
	}
	sumOf := func(keep func(m *mineRun) bool) totals {
		var t totals
		for i := range rp.runs {
			m := &rp.runs[i]
			if !keep(m) {
				continue
			}
			c := m.stats.Counters
			t.n++
			t.selfNS += m.selfNS
			t.selfMS = append(t.selfMS, m.selfNS/1e6)
			t.nodes += float64(c.NodesVisited)
			t.emitted += float64(c.GroupsEmitted)
			t.prun += float64(c.PrunedBackScan + c.PrunedLooseBound + c.PrunedTightBound + c.PrunedChiBound + c.PrunedGainBound)
			t.setup += float64(m.stats.Timings.Setup) / 1e6
			t.search += float64(m.stats.Timings.Search) / 1e6
			t.finish += float64(m.stats.Timings.Finish) / 1e6
			t.arena += float64(m.stats.ArenaBytes)
		}
		return t
	}
	seq := sumOf(func(m *mineRun) bool { return m.miner == "farmer" && !m.parallel })
	n := float64(seq.n)
	set("core.mine_ms_p50", "ms", percentile(seq.selfMS, 50))
	set("core.ns_per_node", "ns", seq.selfNS/seq.nodes)
	set("core.nodes_per_req", "count", seq.nodes/n)
	set("core.emitted_per_node", "ratio", seq.emitted/seq.nodes)
	set("core.pruned_per_node", "ratio", seq.prun/seq.nodes)
	set("engine.setup_ms", "ms", seq.setup/n)
	set("engine.search_ms", "ms", seq.search/n)
	set("engine.arena_bytes", "bytes", seq.arena/n)

	par := sumOf(func(m *mineRun) bool { return m.parallel })
	set("core.parallel_ns_per_node", "ns", par.selfNS/par.nodes)
	set("engine.finish_ms", "ms", par.finish/float64(par.n))
	set("engine.parallel_arena_bytes", "bytes", par.arena/float64(par.n))
	var seqPaired, parPaired float64
	for i := range rp.runs {
		if p := rp.runs[i].pair; p >= 0 {
			seqPaired += rp.runs[i].selfNS
			parPaired += rp.runs[p].selfNS
		}
	}
	set("core.parallel_speedup", "ratio", seqPaired/parPaired)

	exact := sumOf(func(m *mineRun) bool { return m.miner == "topk" && m.budget == 0 })
	set("core.topk_exact_ns_per_node", "ns", exact.selfNS/exact.nodes)
	anytime := sumOf(func(m *mineRun) bool { return m.budget > 0 })
	set("core.anytime_nodes_per_ms", "count", anytime.nodes/(anytime.selfNS/1e6))
	var overrun []float64
	for i := range rp.runs {
		if m := &rp.runs[i]; m.budget > 0 {
			overrun = append(overrun, m.wallNS/1e6-float64(m.budget))
		}
	}
	set("core.anytime_overrun_ms", "ms", mean(overrun))
	for _, miner := range []string{"charm", "carpenter", "cobbler"} {
		t := sumOf(func(m *mineRun) bool { return m.miner == miner })
		set(miner+".ns_per_node", "ns", t.selfNS/t.nodes)
	}
	return out
}

// bitsetSink keeps the compiler from eliminating the measured kernels.
var bitsetSink int

// benchBitset times the bitset kernels under every tidset intersection at
// the row widths the workloads use (64 and 128 bits) and at 8192 bits:
// the median over 15 batches of the time per call, each batch a span.
// Bytes moved per call are computed, not measured: AndTo reads two operands
// and writes one, AndCount reads two.
func benchBitset(tr *tracer) map[string]Metric {
	out := map[string]Metric{}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 128, 8192} {
		x, y, dst := bitset.New(n), bitset.New(n), bitset.New(n)
		for i := 0; i < n/2; i++ {
			x.Set(rng.Intn(n))
			y.Set(rng.Intn(n))
		}
		words := (n + 63) / 64
		iters := 4_000_000 / words
		for _, k := range []struct {
			name string
			f    func()
		}{
			{"and", func() { bitset.AndTo(dst, x, y) }},
			{"andcount", func() { bitsetSink = x.AndCount(y) }},
		} {
			var perCall []float64
			for batch := 0; batch < 15; batch++ {
				id := tr.begin(fmt.Sprintf("bitset.%s/%d", k.name, n), -1, -1)
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					k.f()
				}
				perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(iters))
				tr.end(id)
			}
			out[fmt.Sprintf("bitset.%s_ns_%d", k.name, n)] = Metric{percentile(perCall, 50), "ns"}
		}
		out[fmt.Sprintf("bitset.and_bytes_%d", n)] = Metric{float64(3 * words * 8), "bytes"}
		out[fmt.Sprintf("bitset.andcount_bytes_%d", n)] = Metric{float64(2 * words * 8), "bytes"}
	}
	return out
}
