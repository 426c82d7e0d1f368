package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailRung(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{2000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 75}, {0, 75},
	} {
		if got := tailRung(c.n); got != c.want {
			t.Errorf("tailRung(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, rung := tail(xs); rung != "p95" || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("tail of 1..200 = %v (%s), want 190.05 (p95)", v, rung)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.10}
	thr := metricDef{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.10}
	diag := metricDef{name: "put_latency_p50_ms", unit: "ms", better: "lower", workloads: []string{"interactive"}}
	stats := func(xs ...float64) summaryStats {
		return summarize([]*runResult{
			{Workload: "w", Metrics: map[string]Metric{"m": {Value: xs[0]}}},
			{Workload: "w", Metrics: map[string]Metric{"m": {Value: xs[1]}}},
			{Workload: "w", Metrics: map[string]Metric{"m": {Value: xs[2]}}},
			{Workload: "w", Metrics: map[string]Metric{"m": {Value: xs[3]}}},
			{Workload: "w", Metrics: map[string]Metric{"m": {Value: xs[4]}}},
		})["w"]["m"]
	}
	narrow := stats(99, 100, 100, 100, 101)
	wide := stats(70, 85, 100, 115, 130) // spread 0.3, three times the bound
	for _, c := range []struct {
		what string
		m    metricDef
		o, n summaryStats
		want string
	}{
		{"within the bound", lat, narrow, stats(104, 105, 105, 105, 106), "ok"},
		{"median up beyond the bound", lat, narrow, stats(114, 115, 115, 115, 116), "worse"},
		{"median down beyond the bound", lat, narrow, stats(84, 85, 85, 85, 86), "better"},
		{"higher is better", thr, narrow, stats(84, 85, 85, 85, 86), "worse"},
		// A wide spread on either side leaves a moved median unresolved...
		{"wide new side", lat, narrow, stats(85, 100, 115, 130, 145), "unresolved"},
		{"wide old side", lat, wide, stats(114, 115, 115, 115, 116), "unresolved"},
		{"wide, better median", lat, wide, stats(60, 75, 85, 90, 120), "unresolved"},
		// ...unless every new run is on one side of every old run.
		{"wide, every run worse", lat, wide, stats(131, 140, 150, 160, 170), "worse"},
		{"wide, every run better", thr, wide, stats(131, 140, 150, 160, 170), "better"},
		{"diagnostic", diag, narrow, stats(200, 200, 200, 200, 200), "-"},
	} {
		if got := judge(c.m, c.o, c.n); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.what, got, c.want)
		}
	}
}

// TestResultScalesTimings checks that a run on a host twice as slow as the
// reference reports its gated timings at half their measured value and its
// closed-loop throughput at twice, and that an open loop's throughput, peak
// RSS and the diagnostics stay as measured.
func TestResultScalesTimings(t *testing.T) {
	ms := time.Millisecond
	p := &phaseRun{
		plan:    []Req{{Kind: kindTopK}, {Kind: kindTopK}},
		outs:    []outcome{{sched: 0, done: 10 * ms}, {sched: 0, done: 30 * ms}},
		busy:    40 * ms,
		setupS:  0.008,
		cpuS:    0.05,
		rssMB:   20,
		probeUS: 2 * refProbeUS,
	}
	explore, _ := workloadByName("explore")
	interactive, _ := workloadByName("interactive")
	for _, c := range []struct {
		w    *workload
		want map[string]float64
	}{
		{explore, map[string]float64{"setup_s": 0.004, "latency_p50_ms": 10, "cpu_ms_per_req": 12.5, "throughput_rps": 100, "rss_peak_mb": 20, "topk_exact_p50_ms": 20}},
		{interactive, map[string]float64{"latency_p50_ms": 10, "throughput_rps": 50}},
	} {
		r := c.w.result(p, 1, 1)
		for name, want := range c.want {
			if got := r.Metrics[name].Value; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: %s = %v, want %v", c.w.name, name, got, want)
			}
		}
		if r.Unscaled["latency_p50_ms"] != 20 {
			t.Errorf("%s: unscaled latency_p50_ms = %v, want 20", c.w.name, r.Unscaled["latency_p50_ms"])
		}
	}
}

func TestRecall(t *testing.T) {
	for _, c := range []struct {
		got, exact []float64
		want       float64
	}{
		{[]float64{5, 4, 3, 3}, []float64{5, 4, 4, 3}, 0.75},
		{[]float64{6, 5, 4, 4, 3}, []float64{5, 4, 4, 3}, 1},
		{nil, []float64{2, 1}, 0},
		{[]float64{1}, nil, 1},
		{[]float64{5, 5, 5}, []float64{5, 4}, 0.5},
	} {
		if got := recall(c.got, c.exact); got != c.want {
			t.Errorf("recall(%v, %v) = %v, want %v", c.got, c.exact, got, c.want)
		}
	}
}

// planBench is a bench that can plan but not run.
func planBench(t *testing.T) *bench {
	t.Helper()
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{fx: fx, lives: 5}
}

// longestSeconds is the longest phase the plans' spec pools serve in full.
const longestSeconds = 30

func TestPlansAreSeedDeterministic(t *testing.T) {
	pb := planBench(t)
	for _, w := range workloads {
		a, _ := json.Marshal(pb.planFor(w, 7, defaultSeconds))
		b, _ := json.Marshal(pb.planFor(w, 7, defaultSeconds))
		c, _ := json.Marshal(pb.planFor(w, 8, defaultSeconds))
		if string(a) != string(b) {
			t.Errorf("%s: seed 7 gave two different plans", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.name)
		}
	}
	// Outside dashboard's uniform picks, the seed orders each life's
	// requests but does not choose them.
	for _, name := range []string{"explore", "scaleup", "interactive"} {
		w, _ := workloadByName(name)
		lives := func(seed int64) [][]string {
			plan := pb.planFor(w, seed, defaultSeconds)
			n := pb.lives
			parts := make([][]string, n)
			for k := range parts {
				for _, r := range plan[k*len(plan)/n : (k+1)*len(plan)/n] {
					r.At = 0
					raw, _ := json.Marshal(r)
					parts[k] = append(parts[k], string(raw))
				}
				slices.Sort(parts[k])
			}
			return parts
		}
		a, b := lives(7), lives(8)
		for k := range a {
			if !slices.Equal(a[k], b[k]) {
				t.Errorf("%s: seeds 7 and 8 planned different requests for life %d", name, k)
			}
		}
	}
	// Up to the longest phase, every plan holds rate × seconds requests, so a
	// run lasts as long as asked; every explore and scaleup query and every
	// cold interactive query is distinct, so none can be answered from the
	// cache.
	for _, w := range workloads {
		plan := pb.planFor(w, 7, longestSeconds)
		if want := int(w.perSec * longestSeconds); len(plan) != want {
			t.Errorf("%s: %d requests planned for %d s, want %d", w.name, len(plan), longestSeconds, want)
		}
		seen := map[string]bool{}
		for _, r := range plan {
			if r.Kind == kindRepeat || r.Kind == kindBudget || r.Kind == kindPut {
				continue
			}
			key, _ := json.Marshal(r.Spec)
			if seen[string(key)] {
				t.Errorf("%s: spec %s planned twice", w.name, key)
			}
			seen[string(key)] = true
		}
	}
}

func TestInteractiveMixIsExact(t *testing.T) {
	w, _ := workloadByName("interactive")
	plan := planBench(t).planFor(w, 3, 10)
	count := map[Kind]int{}
	last := int64(0)
	for _, r := range plan {
		count[r.Kind]++
		if r.At < last || r.At <= 0 || r.At > 10e9 {
			t.Fatalf("arrival %d out of order or outside the phase", r.At)
		}
		last = r.At
	}
	n := len(plan)
	want := map[Kind]int{kindBudget: n * 25 / 100, kindFarmer: n * 15 / 100, kindPut: n * 5 / 100}
	want[kindRepeat] = n - want[kindBudget] - want[kindFarmer] - want[kindPut]
	for k, c := range want {
		if count[k] != c {
			t.Errorf("%d %s requests, want %d", count[k], k, c)
		}
	}
}

// TestCheckRepeatsAfterPut checks the cache contract around a re-PUT: the
// first repeat of a spec after it must be a MISS, unless another repeat of
// the spec, even one sent later, was in flight with it and may have cached
// the new answer first.
func TestCheckRepeatsAfterPut(t *testing.T) {
	pb := planBench(t)
	h := 0
	plan := []Req{
		{Kind: kindPut, Put: pb.fx.hot[h].Dataset},
		{Kind: kindRepeat, Spec: &pb.fx.hot[h], Hot: h},
		{Kind: kindRepeat, Spec: &pb.fx.hot[h], Hot: h},
	}
	ms := time.Millisecond
	for _, c := range []struct {
		what       string
		later      outcome
		wantFailed bool
	}{
		{"a later repeat overtook it", outcome{sent: 21 * ms, done: 40 * ms, cache: "MISS"}, false},
		{"no repeat overlapped it", outcome{sent: 60 * ms, done: 70 * ms, cache: "HIT"}, true},
	} {
		outs := []outcome{
			{sent: 0, done: 10 * ms},
			{sent: 20 * ms, done: 50 * ms, cache: "HIT"},
			c.later,
		}
		newChecker(pb.fx, plan, nil).checkRepeats(outs, 0, len(plan))
		if failed := outs[1].err != nil; failed != c.wantFailed {
			t.Errorf("%s: first repeat after the re-PUT failed=%v (%v), want %v", c.what, failed, outs[1].err, c.wantFailed)
		}
		if outs[2].err != nil {
			t.Errorf("%s: second repeat: %v", c.what, outs[2].err)
		}
	}
}

// TestOpenLoopCountsSendWait drives a stub server whose first answer
// stalls. The next request is due before the stall ends, so its latency
// must run from its due time, not from when the busy client could send it.
func TestOpenLoopCountsSendWait(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "{}\n")
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	reqs := []wireReq{{method: http.MethodGet, path: "/"}, {method: http.MethodGet, path: "/"}, {method: http.MethodGet, path: "/"}}
	at := []time.Duration{time.Millisecond, 10 * time.Millisecond, 400 * time.Millisecond}
	outs := make([]outcome, len(reqs))
	start := drive(context.Background(), c, reqs, at, 1, outs, func(int, *outcome, response) {})
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.sched != start+at[i] {
			t.Errorf("request %d scheduled at %v, want %v", i, o.sched-start, at[i])
		}
	}
	if lat := outs[1].latencyMS(); lat < float64((stall-10*time.Millisecond)/time.Millisecond) {
		t.Errorf("request due during the stall took %.1f ms, want at least the %v it waited to be sent", lat, stall-10*time.Millisecond)
	}
	if wait := outs[1].sent - outs[1].sched; wait < stall-20*time.Millisecond {
		t.Errorf("request due during the stall was sent %v late, want about %v", wait, stall)
	}
	if lat := outs[2].latencyMS(); lat > 100 {
		t.Errorf("request due after the stall took %.1f ms", lat)
	}
}

// smokeBench builds farmerd for a smoke test.
func smokeBench(t *testing.T) *bench {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs farmerd")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildFarmerd(context.Background(), root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{fx: fx, farmerd: bin, work: t.TempDir(), log: io.Discard, lives: 2}
}

// smokeSeconds runs each workload at about 2% of its default size.
const smokeSeconds = 0.4

// TestSmoke builds farmerd and runs every workload small: no request may
// fail, and each run reports every end-to-end metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	b := smokeBench(t)
	for _, w := range workloads {
		p, err := b.runPhase(context.Background(), w, 1, smokeSeconds, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := w.result(p, 1, smokeSeconds)
		if r.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.name, r.Failed, r.Attempted, r.Errors)
		}
		for _, m := range endToEnd {
			if _, ok := r.Metrics[m.name]; m.gated() && !ok {
				t.Errorf("%s: no %s", w.name, m.name)
			}
		}
	}
}

// TestTracedSmoke runs the traced run of every workload small: no request
// may fail, and each reports every per-layer metric BENCHMARK.json lists.
func TestTracedSmoke(t *testing.T) {
	b := smokeBench(t)
	for _, w := range workloads {
		s, _, err := b.traced(context.Background(), w, 1, smokeSeconds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, s.Failed, s.Attempted)
		}
		for _, m := range perLayer {
			if _, ok := s.Metrics[m.name]; !ok {
				t.Errorf("%s: no %s", w.name, m.name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which declares the
// benchmark's command, workloads and metrics, in step with the tables the
// benchmark runs.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		if !w.handRun {
			wantW = append(wantW, w.name+": "+w.why)
		}
	}
	var gotE, wantE []string
	for _, m := range spec.EndToEnd {
		gotE = append(gotE, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		if m.gated() {
			wantE = append(wantE, fmt.Sprintf("%s %s %s %g", m.name, m.unit, m.better, m.bound))
		}
	}
	var gotL, wantL []string
	for _, m := range spec.PerLayer {
		gotL = append(gotL, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayer {
		wantL = append(wantL, m.name+" "+m.unit+" "+m.better)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"workloads", gotW, wantW}, {"end_to_end", gotE, wantE}, {"per_layer", gotL, wantL}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %q, the benchmark runs %q", c.what, c.got, c.want)
		}
	}
}
