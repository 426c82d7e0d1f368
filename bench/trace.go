package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// span is one traced interval: the call it timed, when it started and
// ended (nanoseconds since the benchmark started), the span that caused it
// (-1 for a root) and the request it served (its index in the plan; -1 for
// set-up work).
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      int64
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the client goroutines of a traced phase share it.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	start := int64(now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := int64(now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent, req int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	return len(t.spans) - 1
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func() error) error {
	id := t.begin(name, parent, req)
	err := f()
	t.end(id)
	return err
}

// durations returns every closed span's duration in ns, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, by span name, the summed self time in ms — each
// span's duration minus the part its child spans cover — and the call
// count.
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, calls := map[string]float64{}, map[string]int{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		calls[s.Name]++
	}
	return self, calls
}

// traceSummary is the per-layer result of one traced workload run.
type traceSummary struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// SelfMS is each span name's total self time; Calls its span count.
	SelfMS map[string]float64 `json:"self_ms"`
	Calls  map[string]int     `json:"calls"`
	// Rejected counts the daemon's refusals during the traced phase by
	// reason.
	Rejected map[string]float64 `json:"rejected"`
}

// traced is the traced run of one workload, a separate invocation from the
// measured runs: an untraced phase, the same phase again with a client span
// per request and the daemon's /metrics and /v1/jobs scraped around it,
// then an in-process replay of the workload's request list with spans
// around the public calls of each layer, and the bitset kernels.
func (b *bench) traced(ctx context.Context, w *workload, seed int64, seconds float64) (*traceSummary, []span, error) {
	untraced, err := b.runPhase(ctx, w, seed, seconds, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{}
	ph := &phaseProbe{tr: tr, delta: map[string]float64{}}
	p, err := b.runPhase(ctx, w, seed, seconds, &phaseHooks{before: ph.before, after: ph.after, answer: ph.answer})
	if err != nil {
		return nil, nil, err
	}
	base, res := w.result(untraced, seed, seconds), w.result(p, seed, seconds)
	s := &traceSummary{Workload: w.name, Seed: seed, Seconds: seconds,
		Attempted: base.Attempted + res.Attempted, Failed: base.Failed + res.Failed,
		Metrics: map[string]Metric{}, Rejected: map[string]float64{}}
	set := func(name, unit string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Metrics[name] = Metric{Value: v, Unit: unit}
		}
	}

	// The daemon's own counters around the traced phase.
	var clientMS, gaps, records []float64
	for i := range p.outs {
		o := &p.outs[i]
		if o.err != nil {
			continue
		}
		clientMS = append(clientMS, o.latencyMS())
		records = append(records, float64(o.records))
		if o.answer != nil && o.answer.gap != nil {
			gaps = append(gaps, *o.answer.gap)
		}
	}
	var queueMS []float64
	jobMS := 0.0
	for _, j := range ph.jobs {
		queueMS = append(queueMS, j.queueMS)
		jobMS += j.queueMS + j.runMS
	}
	hits, misses := ph.delta["farmerd_cache_hits_total"], ph.delta["farmerd_cache_misses_total"]
	for name, v := range ph.delta {
		if reason, ok := strings.CutPrefix(name, `farmerd_rejected_total{reason="`); ok {
			s.Rejected[strings.TrimSuffix(reason, `"}`)] = v
		}
	}
	queueTail, _ := tail(queueMS)
	set("serve.overhead_ms", "ms", (sum(clientMS)-jobMS)/float64(len(clientMS)))
	set("serve.records_per_req", "count", mean(records))
	set("serve.cache_hit_frac", "fraction", hits/(hits+misses))
	set("serve.queue_ms_p50", "ms", percentile(queueMS, 50))
	set("serve.queue_ms_tail", "ms", queueTail)
	set("serve.rejected", "count", sumMap(s.Rejected))
	set("core.anytime_gap_mean", "score", mean(gaps))
	set("trace.overhead_frac", "fraction", res.Metrics["latency_p50_ms"].Value/base.Metrics["latency_p50_ms"].Value-1)

	// The in-process replay and the kernels.
	rp, err := b.replay(ctx, w, p.plan, tr)
	if err != nil {
		return nil, nil, err
	}
	for name, m := range rp.metrics(tr) {
		s.Metrics[name] = m
	}
	for name, m := range benchBitset(tr) {
		set(name, m.Unit, m.Value)
	}
	// Closure: over the replayed prefix, in-process time per request plus the
	// daemon's serving overhead should add up to the client's mean latency.
	var prefixMS []float64
	for i := 0; i < rp.prefix; i++ {
		if p.outs[i].err == nil {
			prefixMS = append(prefixMS, p.outs[i].latencyMS())
		}
	}
	if m, ok := s.Metrics["serve.overhead_ms"]; ok && rp.queries > 0 {
		set("trace.closure", "ratio", (rp.inProcessMS/float64(rp.queries)+m.Value)/mean(prefixMS))
	}
	s.SelfMS, s.Calls = tr.selfTimes()
	return s, tr.spans, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sumMap(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// phaseProbe scrapes the daemon around each life's traced phase and
// records one client span per request (plus its send wait, in an open
// loop).
type phaseProbe struct {
	tr  *tracer
	pre map[string]float64 // the current life's scrape before its phase
	// delta sums each series' change over the lives' phases.
	delta   map[string]float64
	lastJob int
	jobs    []jobTimes
}

// jobTimes are one job's queue wait and run time, from its status
// timestamps (the integer queue_ms/run_ms fields would truncate).
type jobTimes struct{ queueMS, runMS float64 }

func (ph *phaseProbe) before(l *life) error {
	var err error
	if ph.pre, err = scrapeMetrics(l); err != nil {
		return err
	}
	jobs, err := listJobs(l, 1)
	if len(jobs) > 0 {
		ph.lastJob = jobSeq(jobs[0].ID)
	}
	return err
}

func (ph *phaseProbe) after(l *life) error {
	post, err := scrapeMetrics(l)
	if err != nil {
		return err
	}
	for name, v := range post {
		ph.delta[name] += v - ph.pre[name]
	}
	jobs, err := listJobs(l, 1<<20)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if jobSeq(j.ID) <= ph.lastJob || j.StartedAt == "" || j.FinishedAt == "" {
			continue
		}
		created, err1 := time.Parse(time.RFC3339Nano, j.CreatedAt)
		started, err2 := time.Parse(time.RFC3339Nano, j.StartedAt)
		finished, err3 := time.Parse(time.RFC3339Nano, j.FinishedAt)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("job %s: bad timestamps", j.ID)
		}
		ph.jobs = append(ph.jobs, jobTimes{float64(started.Sub(created)) / 1e6, float64(finished.Sub(started)) / 1e6})
	}
	return nil
}

func (ph *phaseProbe) answer(i int, o *outcome) {
	id := ph.tr.add("client.request", -1, i, o.sched, o.done)
	if o.sent > o.sched {
		ph.tr.add("client.send_wait", id, i, o.sched, o.sent)
	}
}

func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-")) // ids are "job-<seq>"
	return n
}

func listJobs(l *life, limit int) ([]serve.JobStatus, error) {
	var buf bytes.Buffer
	resp, err := l.c.call(context.Background(), http.MethodGet, "/v1/jobs?limit="+strconv.Itoa(limit), nil, "", &buf)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs: status %d", resp.status)
	}
	var jobs []serve.JobStatus
	if err := json.Unmarshal(resp.body, &jobs); err != nil {
		return nil, fmt.Errorf("GET /v1/jobs: %w", err)
	}
	return jobs, nil
}

// scrapeMetrics reads GET /metrics into a map from series (name plus
// labels) to value.
func scrapeMetrics(l *life) (map[string]float64, error) {
	var buf bytes.Buffer
	resp, err := l.c.call(context.Background(), http.MethodGet, "/metrics", nil, "", &buf)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(resp.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("GET /metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// tracedWorkload is one workload's traced run: its summary and its spans.
type tracedWorkload struct {
	summary *traceSummary
	spans   []span
}

// spanFields names the columns of a span line in the spans file.
var spanFields = []string{"id", "parent", "req", "name", "start_ns", "end_ns"}

// writeSpans writes the traced runs to path as NDJSON: per workload a
// {"workload","summary","span_fields"} line, then one line per span, an
// array in spanFields order, which keeps a million-span file near 50 MB.
func writeSpans(path string, traced []tracedWorkload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names := map[string][]byte{}
	for _, t := range traced {
		head, err := json.Marshal(struct {
			Workload   string        `json:"workload"`
			Summary    *traceSummary `json:"summary"`
			SpanFields []string      `json:"span_fields"`
		}{t.summary.Workload, t.summary, spanFields})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(head)
		w.WriteByte('\n')
		for _, s := range t.spans {
			name, ok := names[s.Name]
			if !ok {
				name, _ = json.Marshal(s.Name) // a string always marshals
				names[s.Name] = name
			}
			fmt.Fprintf(w, "[%d,%d,%d,%s,%d,%d]\n", s.ID, s.Parent, s.Req, name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printSummary prints a traced run's per-layer metrics and span self times.
func printSummary(w io.Writer, s *traceSummary) {
	names := make([]string, 0, len(s.Metrics))
	for name := range s.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-12s %-32s %16.4f %s\n", s.Workload, name, s.Metrics[name].Value, s.Metrics[name].Unit)
	}
	spans := make([]string, 0, len(s.SelfMS))
	for name := range s.SelfMS {
		spans = append(spans, name)
	}
	sort.Slice(spans, func(i, j int) bool { return s.SelfMS[spans[i]] > s.SelfMS[spans[j]] })
	for _, name := range spans {
		fmt.Fprintf(w, "%-12s self %-27s %16.1f ms over %d spans\n", s.Workload, name, s.SelfMS[name], s.Calls[name])
	}
	fmt.Fprintf(w, "%-12s %-32s %16d of %d attempted\n", s.Workload, "failed", s.Failed, s.Attempted)
}
