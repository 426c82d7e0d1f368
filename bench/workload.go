package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"time"

	farmer "repro"
	"repro/internal/serve"
)

// workload is one traffic mix, driven against freshly started daemons.
type workload struct {
	name, why string
	// clients is the number of client goroutines, each with its own
	// keep-alive connection.
	clients int
	// open sends each request at its planned time (an open loop); otherwise
	// each client sends its next request when its previous answer is in.
	open bool
	// perSec is the number of requests planned per second of the timed
	// phase (closed loop) or the Poisson arrival rate (open loop). Request
	// counts follow from it and the phase length alone, so two commits run
	// identical request lists; at the seed commit a phase lasts about as
	// long as asked.
	perSec float64
	// restart fills the store in an untimed first daemon life; each set-up
	// then restarts the daemon over that store.
	restart bool
	// primeHot primes the hot set during set-up.
	primeHot bool
	// setups is how many set-ups a run times at least. Where it exceeds the
	// lives, the run sets up and stops further daemons between them:
	// set-ups of a few milliseconds need many samples for a steady median.
	setups int
	// handRun marks a workload BENCHMARK.json leaves out: it runs when asked
	// for, and -compare prints its metrics without a verdict.
	handRun bool
	// registers lists the datasets the set-up registers.
	registers func(fx *fixture) []string
	// plan returns the workload's n requests. Only dashboard's uniform picks
	// draw on rng; the others return the same requests in the same order for
	// every seed.
	plan func(fx *fixture, rng *rand.Rand, n int) []Req
}

func baseSets(*fixture) []string { return benchNames }

var workloads = []*workload{
	{
		name:      "explore",
		why:       "the threshold sweep an analyst runs: distinct cold queries, so the sequential miners and the encode/stream path do the work",
		clients:   2,
		perSec:    80,
		setups:    25,
		registers: baseSets,
		plan:      explorePlan,
	},
	{
		name: "dashboard",
		why:  "warm repeats of a primed hot set, 30% conditional: the zero-copy replay path with no mining",
		// Four clients keep both cores busy. With two, each request also waits
		// for an idle core to wake, a wait that drifts with the host's load
		// on a shared virtual machine and made runs minutes apart disagree by
		// twice as much.
		clients:  4,
		perSec:   60000,
		primeHot: true,
		// A repeat costs the daemon about 25 µs of CPU, mostly loopback
		// syscalls and wake-ups, and on a shared 2-vCPU virtual machine that
		// cost follows the neighbours' load: ten runs spread by up to 0.32
		// of their median, more than any bound BENCHMARK.json accepts.
		handRun:   true,
		registers: baseSets,
		plan:      dashboardPlan,
	},
	{
		name:    "scaleup",
		why:     "the §4.1 scale-up: parallel FARMER on x2/x4 replicas from one client, after a restart over the durable store",
		clients: 1,
		perSec:  8,
		restart: true,
		setups:  25,
		registers: func(fx *fixture) []string {
			var names []string
			for _, name := range benchNames {
				for _, k := range scaleFactors {
					names = append(names, replicaName(name, k))
				}
			}
			return names
		},
		plan: scaleupPlan,
	},
	{
		name: "interactive",
		why:  "open-loop Poisson mix of warm repeats, budgeted top-k, cold queries and re-PUTs: reads beside writes; its throughput_rps only checks that the daemon keeps up",
		// With two connections, a request due while both carry a slow query
		// waits for one to free, and how often slow queries coincide varies
		// with the seed: the tail's spread across seeds halved with four.
		clients:  4,
		open:     true,
		perSec:   60,
		primeHot: true,
		registers: func(*fixture) []string {
			names := append([]string(nil), benchNames...)
			for _, c := range budgetCases {
				names = append(names, replicaName(c.base, 4))
			}
			return names
		},
		plan: interactivePlan,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func handRun(name string) bool {
	w, ok := workloadByName(name)
	return ok && w.handRun
}

// planFor generates the workload's request list for one run: the same seed
// and phase length always give the same list. A fixed shuffle deals the
// requests to the run's lives (b.lives consecutive parts of the list), so
// the requests of each life are the same for every seed: a query's cost
// varies tenfold, and each life's peak RSS moved with which queries it drew.
// The seed orders the requests within each life and, in an open loop,
// draws the arrival times: n sorted uniform draws over the phase, a Poisson
// process conditioned on its count.
func (b *bench) planFor(w *workload, seed int64, seconds float64) []Req {
	rng := rand.New(rand.NewSource(seed))
	plan := w.plan(b.fx, rng, max(int(math.Round(w.perSec*seconds)), 1))
	swap := func(part []Req) func(i, j int) { return func(i, j int) { part[i], part[j] = part[j], part[i] } }
	rand.New(rand.NewSource(1)).Shuffle(len(plan), swap(plan))
	for k := 0; k < b.lives; k++ {
		part := plan[k*len(plan)/b.lives : (k+1)*len(plan)/b.lives]
		rng.Shuffle(len(part), swap(part))
	}
	if w.open {
		at := make([]int64, len(plan))
		for i := range at {
			at[i] = 1 + rng.Int63n(int64(seconds*1e9))
		}
		slices.Sort(at)
		for i := range plan {
			plan[i].At = at[i]
		}
	}
	return plan
}

// bench is one invocation's shared state.
type bench struct {
	fx      *fixture
	farmerd string // the binary under test
	work    string // scratch directory for stores, inside the checkout
	log     io.Writer
	// lives is how many daemon lives a run spreads its plan over.
	lives int
	// exact caches the exact top-k scores of each budgeted dataset.
	exact map[string][]float64
}

// life is a daemon set up and ready for a phase.
type life struct {
	d      *daemon
	c      *client
	primed []primedAnswer
	setup  time.Duration
}

func (l *life) stop() {
	l.c.close()
	l.d.stop()
}

// setUp execs farmerd over storeDir and makes it ready: /healthz answers,
// the workload's datasets are registered (PUT: parse, Prepare and, over a
// store, an fsync'd write) and the hot set is primed. After a restart over a
// filled store, readiness is one trivial query per dataset instead
// (minsup = row count), which pays each lazy snapshot decode. The
// returned set-up time runs from exec to ready.
func (b *bench) setUp(ctx context.Context, w *workload, storeDir string, restarted bool) (*life, error) {
	t0 := time.Now()
	d, err := startDaemon(b.farmerd, storeDir)
	if err != nil {
		return nil, err
	}
	l := &life{d: d, c: newClient(d.base, w.clients)}
	if err := b.ready(ctx, w, l, restarted); err != nil {
		l.stop()
		return nil, fmt.Errorf("%s set-up: %w\nfarmerd log:\n%s", w.name, err, d.log)
	}
	l.setup = time.Since(t0)
	return l, nil
}

func (b *bench) ready(ctx context.Context, w *workload, l *life, restarted bool) error {
	var buf bytes.Buffer
	call := func(method, path string, body []byte, want int) (response, error) {
		resp, err := l.c.call(ctx, method, path, body, "", &buf)
		if err == nil && resp.status != want {
			err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.status, want, firstLine(resp.body))
		}
		return resp, err
	}
	if _, err := call(http.MethodGet, "/healthz", nil, http.StatusOK); err != nil {
		return err
	}
	for _, name := range w.registers(b.fx) {
		set := b.fx.sets[name]
		if restarted {
			body, _ := json.Marshal(serve.QuerySpec{Miner: "farmer", Dataset: name, MinSup: set.d.NumRows()})
			if _, err := call(http.MethodPost, "/v1/query", body, http.StatusOK); err != nil {
				return err
			}
			continue
		}
		if _, err := call(http.MethodPut, "/v1/datasets/"+name, set.text, http.StatusCreated); err != nil {
			return err
		}
	}
	if !w.primeHot {
		return nil
	}
	// Each hot spec is mined once, then asked again until the answer is a
	// cached replay, which carries the ETag later conditional repeats send.
	// The daemon fills its cache just after the mined answer's last byte, so
	// a repeat sent at once can still join the finished job (a MISS).
	for _, spec := range b.fx.hot {
		body, _ := json.Marshal(spec) // a QuerySpec always marshals
		resp, err := call(http.MethodPost, "/v1/query", body, http.StatusOK)
		if err != nil {
			return err
		}
		if _, end, err := splitStream(resp.body); err != nil || end.State != serve.StateDone || end.Partial {
			return fmt.Errorf("priming %s on %s: incomplete answer (%v)", spec.Miner, spec.Dataset, err)
		}
		answer := bytes.Clone(resp.body)
		for try := 0; ; try++ {
			if resp, err = call(http.MethodPost, "/v1/query", body, http.StatusOK); err != nil {
				return err
			}
			if !bytes.Equal(resp.body, answer) {
				return fmt.Errorf("priming %s on %s: a repeat answered different bytes", spec.Miner, spec.Dataset)
			}
			if resp.cache == "HIT" && resp.etag != "" {
				break
			}
			if try == 100 {
				return fmt.Errorf("priming %s on %s: the answer was never cached", spec.Miner, spec.Dataset)
			}
			time.Sleep(5 * time.Millisecond)
		}
		l.primed = append(l.primed, primedAnswer{body: answer, etag: resp.etag, records: int32(bytes.Count(answer, []byte{'\n'}) - 1)})
	}
	return nil
}

// phaseRun is everything one run observed over its daemon lives.
type phaseRun struct {
	plan []Req
	outs []outcome
	// busy sums the lives' phase lengths, each from its start to its last
	// answer's last byte.
	busy   time.Duration
	setupS float64 // median of the run's set-up times
	cpuS   float64 // daemon user+system CPU over the phases
	rssMB  float64 // median peak RSS of the lives
	recall float64 // mean recall of budgeted answers; NaN without any
	// probeUS is the median host-speed probe (probe.go), taken before each
	// life and after the last set-up.
	probeUS float64
}

// phaseCap bounds a run's phases at four times their planned length (10 s
// to 120 s) so a badly regressed commit still finishes a run; requests it
// cuts off count as failed.
func phaseCap(seconds float64) time.Duration {
	return min(max(time.Duration(4*seconds*float64(time.Second)), 10*time.Second), 120*time.Second)
}

// phaseHooks are the traced run's observation points around each life's
// phase.
type phaseHooks struct {
	before, after func(l *life) error
	// answer runs on the client goroutine after each answer's last byte.
	answer func(i int, o *outcome)
}

// runPhase drives the workload's plan for one seed and checks every
// answer. The plan is split into b.lives consecutive parts, each driven
// against its own freshly set up daemon, so one run measures several
// processes and several set-ups. Latency percentiles, CPU and throughput
// pool every part; peak RSS is the median over the lives. A workload with
// cheap set-ups also sets up and stops further daemons before each life,
// until it has timed w.setups set-ups; setup_s is their median. The
// host-speed probe runs before each life and after the last one, while no
// daemon runs.
//
// A restart workload first fills a durable store in an untimed life and
// every timed set-up restarts over it. The others run RAM-only: on a
// shared disk an fsync takes 2 ms in one minute and 130 ms in the next,
// which would swamp the program's own cost of a PUT. hooks may be nil.
func (b *bench) runPhase(ctx context.Context, w *workload, seed int64, seconds float64, hooks *phaseHooks) (*phaseRun, error) {
	plan := b.planFor(w, seed, seconds)
	exact, err := b.exactTopK(ctx, plan)
	if err != nil {
		return nil, err
	}
	var storeDir string
	if w.restart {
		if storeDir, err = os.MkdirTemp(b.work, w.name+"-store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(storeDir)
		first, err := b.setUp(ctx, w, storeDir, false)
		if err != nil {
			return nil, err
		}
		first.stop()
	}
	p := &phaseRun{plan: plan, outs: make([]outcome, len(plan))}
	ck := newChecker(b.fx, plan, exact)
	pctx, cancel := context.WithTimeout(ctx, phaseCap(seconds))
	defer cancel()
	var setups, rss, probes []float64
	extra := max(w.setups-b.lives, 0)
	for k := 0; k < b.lives; k++ {
		probes = append(probes, probeHost())
		// Extra set-ups go before each life, so they sample the host across
		// the whole run.
		for i := extra * k / b.lives; i < extra*(k+1)/b.lives; i++ {
			l, err := b.setUp(ctx, w, storeDir, w.restart)
			if err != nil {
				return nil, err
			}
			l.stop()
			setups = append(setups, l.setup.Seconds())
		}
		lo, hi := k*len(plan)/b.lives, (k+1)*len(plan)/b.lives
		setupS, rssMB, err := b.runLife(ctx, pctx, w, storeDir, p, ck, lo, hi, hooks)
		if err != nil {
			return nil, err
		}
		setups, rss = append(setups, setupS), append(rss, rssMB)
	}
	probes = append(probes, probeHost())
	p.setupS, p.rssMB, p.probeUS = percentile(setups, 50), percentile(rss, 50), percentile(probes, 50)
	fmt.Fprintf(b.log, "%s: %d lives, %d set-ups, set-up median %.4f s; %d requests; host probe %.2f µs\n",
		w.name, b.lives, len(setups), p.setupS, len(plan), p.probeUS)
	if p.recall, err = ck.verify(ctx, p.outs); err != nil {
		return nil, err
	}
	return p, nil
}

// runLife sets up one daemon life, drives plan[lo:hi] against it under
// phaseCtx, adds what it observed to p and stops the daemon. It returns
// the life's set-up time and peak RSS.
func (b *bench) runLife(ctx, phaseCtx context.Context, w *workload, storeDir string, p *phaseRun, ck *checker, lo, hi int, hooks *phaseHooks) (setupS, rssMB float64, err error) {
	l, err := b.setUp(ctx, w, storeDir, w.restart)
	if err != nil {
		return 0, 0, err
	}
	defer l.stop()
	ck.primed = l.primed
	reqs, at := b.wire(p.plan[lo:hi], l.primed, w.open)
	inspect := func(i int, o *outcome, resp response) { ck.inspect(lo+i, o, resp) }
	if hooks != nil {
		if err := hooks.before(l); err != nil {
			return 0, 0, err
		}
		inspect = func(i int, o *outcome, resp response) {
			ck.inspect(lo+i, o, resp)
			hooks.answer(lo+i, o)
		}
	}
	cpu0, err := l.d.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	outs := p.outs[lo:hi]
	start := drive(phaseCtx, l.c, reqs, at, w.clients, outs, inspect)
	end := start
	for i := range outs {
		end = max(end, outs[i].done)
	}
	p.busy += end - start
	cpu1, err := l.d.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	p.cpuS += cpu1 - cpu0
	if rssMB, err = l.d.peakRSSMB(); err != nil {
		return 0, 0, err
	}
	if hooks != nil {
		if err := hooks.after(l); err != nil {
			return 0, 0, err
		}
	}
	ck.checkRepeats(p.outs, lo, hi)
	return l.setup.Seconds(), rssMB, nil
}

// wire renders requests for the wire, marshaling each distinct spec once.
// For an open loop it also returns each request's due time, counted from
// the first request of reqs.
func (b *bench) wire(reqs []Req, primed []primedAnswer, open bool) ([]wireReq, []time.Duration) {
	bodies := map[*serve.QuerySpec][]byte{}
	out := make([]wireReq, len(reqs))
	var at []time.Duration
	if open {
		at = make([]time.Duration, len(reqs))
	}
	for i, r := range reqs {
		if r.Kind == kindPut {
			out[i] = wireReq{method: http.MethodPut, path: "/v1/datasets/" + r.Put, body: b.fx.sets[r.Put].text}
		} else {
			body, ok := bodies[r.Spec]
			if !ok {
				body, _ = json.Marshal(r.Spec) // a QuerySpec always marshals
				bodies[r.Spec] = body
			}
			out[i] = wireReq{method: http.MethodPost, path: "/v1/query", body: body}
			if r.IfNoneMatch {
				out[i].ifNoneMatch = primed[r.Hot].etag
			}
		}
		if open {
			at[i] = time.Duration(r.At - reqs[0].At)
		}
	}
	return out, at
}

// exactTopK mines the exact top-k ranking of every budgeted spec in the
// plan in-process, the reference budgeted answers are scored against, and
// keeps it for the invocation's later runs. It runs before set-up and is
// timed by nothing.
func (b *bench) exactTopK(ctx context.Context, plan []Req) (map[string][]float64, error) {
	if b.exact == nil {
		b.exact = map[string][]float64{}
	}
	for _, r := range plan {
		s := r.Spec
		if r.Kind != kindBudget || b.exact[s.Dataset] != nil {
			continue
		}
		d := b.fx.sets[s.Dataset].d
		m, err := farmer.ParseMeasure(s.Measure)
		if err != nil {
			return nil, err
		}
		res, err := farmer.RunTopK(ctx, d, d.ClassIndex(s.Class), farmer.TopKOptions{K: s.K, Measure: m, MinSup: s.MinSup})
		if err != nil {
			return nil, fmt.Errorf("exact top-k on %s: %w", s.Dataset, err)
		}
		scores := make([]float64, len(res.Groups))
		for i, g := range res.Groups {
			scores[i] = g.Score
		}
		b.exact[s.Dataset] = scores
	}
	return b.exact, nil
}

// runResult is one run of one workload as the results file records it.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// TailPercentile names the ladder rung latency_tail_ms used.
	TailPercentile string `json:"tail_percentile"`
	// ProbeUS is the run's host-speed probe, and Unscaled holds the
	// timings it scaled as they were measured (see scaledTimings).
	ProbeUS  float64            `json:"probe_us"`
	Unscaled map[string]float64 `json:"unscaled"`
	// GenLagMS is the open loop's median lateness of sends behind their
	// schedule: a diagnostic, never gated.
	GenLagMS *float64 `json:"gen_lag_ms,omitempty"`
	// Kinds breaks the successful answers' latency down by request kind.
	Kinds []kindLatency `json:"kinds"`
	// Errors holds the first few failures.
	Errors []string `json:"errors,omitempty"`
}

// kindLatency is the latency of one request kind within a run.
type kindLatency struct {
	Kind           Kind    `json:"kind"`
	N              int     `json:"n"`
	P50MS          float64 `json:"p50_ms"`
	TailMS         float64 `json:"tail_ms"`
	TailPercentile string  `json:"tail_percentile"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// scaledTimings are the gated timings a run reports at the reference host's
// speed (probe.go): each is multiplied by refProbeUS over the run's probe,
// throughput divided by it. An open loop's throughput is its arrival rate,
// which the host's speed does not set, so it stays as measured. The
// diagnostics stay as measured too.
var scaledTimings = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_req", "throughput_rps"}

// result computes the run's end-to-end metrics. A metric without samples
// (a workload too short to contain the request kind) is left out.
func (w *workload) result(p *phaseRun, seed int64, seconds float64) *runResult {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Attempted: len(p.plan), Metrics: map[string]Metric{}}
	var all, lags []float64
	byKind := map[Kind][]float64{}
	for i := range p.outs {
		o := &p.outs[i]
		if o.err != nil {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, fmt.Sprintf("request %d (%s): %v", i, p.plan[i].Kind, o.err))
			}
			continue
		}
		ms := o.latencyMS()
		all = append(all, ms)
		byKind[p.plan[i].Kind] = append(byKind[p.plan[i].Kind], ms)
		if w.open {
			lags = append(lags, float64(o.sent-o.sched)/1e6)
		}
	}
	completed := float64(len(all))
	tailMS, rung := tail(all)
	budgetTail, _ := tail(byKind[kindBudget])
	repeatTail, _ := tail(byKind[kindRepeat])
	values := map[string]float64{
		"setup_s":                p.setupS,
		"latency_p50_ms":         percentile(all, 50),
		"latency_tail_ms":        tailMS,
		"throughput_rps":         completed / p.busy.Seconds(),
		"cpu_ms_per_req":         p.cpuS * 1000 / completed,
		"rss_peak_mb":            p.rssMB,
		"error_frac":             float64(res.Failed) / float64(res.Attempted),
		"topk_exact_p50_ms":      percentile(byKind[kindTopK], 50),
		"budget_latency_p50_ms":  percentile(byKind[kindBudget], 50),
		"budget_latency_tail_ms": budgetTail,
		"topk_recall":            p.recall,
		"repeat_latency_tail_ms": repeatTail,
		"put_latency_p50_ms":     percentile(byKind[kindPut], 50),
	}
	res.ProbeUS, res.Unscaled = p.probeUS, map[string]float64{}
	speed := refProbeUS / p.probeUS
	for _, name := range scaledTimings {
		scale := speed
		if name == "throughput_rps" {
			if w.open {
				continue
			}
			scale = 1 / speed
		}
		res.Unscaled[name] = values[name]
		values[name] *= scale
	}
	for _, m := range endToEnd {
		v := values[m.name]
		if m.appliesTo(w.name) && !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
		}
	}
	res.TailPercentile = rung
	for _, k := range []Kind{kindFarmer, kindTopK, kindClosed, kindScale, kindRepeat, kindBudget, kindPut} {
		if xs := byKind[k]; len(xs) > 0 {
			t, rung := tail(xs)
			res.Kinds = append(res.Kinds, kindLatency{Kind: k, N: len(xs), P50MS: percentile(xs, 50), TailMS: t, TailPercentile: rung})
		}
	}
	if len(lags) > 0 {
		res.GenLagMS = ptr(percentile(lags, 50))
	}
	return res
}
