package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"

	farmer "repro"
	"repro/internal/serve"
)

// primedAnswer is a hot-set answer captured during set-up: every later
// repeat must replay these bytes, and a conditional repeat must match the
// ETag.
type primedAnswer struct {
	body    []byte
	etag    string
	records int32 // record lines before the end frame
}

// checker validates every answer of a run. inspect runs on the client
// goroutine right after each answer and checkRepeats after each daemon
// life; verify runs once every phase is over and does the checks that mine
// reference answers in-process.
type checker struct {
	fx   *fixture
	plan []Req
	// primed is the current daemon life's primed hot set.
	primed []primedAnswer
	// exact holds the exact top-k scores of each budgeted dataset.
	exact map[string][]float64
	// keep marks the cold answers whose bodies are kept for a reference
	// check: every 10th request, the first of each miner/dataset pair, and
	// every replica answer (the replication invariant).
	keep []bool
}

func newChecker(fx *fixture, plan []Req, exact map[string][]float64) *checker {
	ck := &checker{fx: fx, plan: plan, exact: exact, keep: make([]bool, len(plan))}
	seen := map[string]bool{}
	for i, r := range plan {
		switch r.Kind {
		case kindFarmer, kindTopK, kindClosed:
			pair := r.Spec.Miner + "/" + r.Spec.Dataset
			ck.keep[i] = i%10 == 0 || !seen[pair]
			seen[pair] = true
		case kindScale:
			ck.keep[i] = true
		}
	}
	return ck
}

func (ck *checker) inspect(i int, o *outcome, resp response) {
	r := &ck.plan[i]
	switch r.Kind {
	case kindPut:
		if resp.status != http.StatusCreated {
			o.err = fmt.Errorf("PUT %s: status %d: %s", r.Put, resp.status, firstLine(resp.body))
		}
		return
	case kindRepeat:
		if r.IfNoneMatch {
			if resp.status != http.StatusNotModified || len(resp.body) != 0 {
				o.err = fmt.Errorf("conditional repeat of hot spec %d: status %d with %d body bytes, want 304 and none", r.Hot, resp.status, len(resp.body))
			}
			return
		}
		if resp.status != http.StatusOK {
			o.err = fmt.Errorf("repeat of hot spec %d: status %d: %s", r.Hot, resp.status, firstLine(resp.body))
			return
		}
		if !bytes.Equal(resp.body, ck.primed[r.Hot].body) {
			o.err = fmt.Errorf("repeat of hot spec %d: body differs from the primed answer", r.Hot)
		}
		o.records = ck.primed[r.Hot].records
		return
	}
	if resp.status != http.StatusOK {
		o.err = fmt.Errorf("%s query: status %d: %s", r.Kind, resp.status, firstLine(resp.body))
		return
	}
	records, end, err := splitStream(resp.body)
	if err != nil {
		o.err = fmt.Errorf("%s query: %w", r.Kind, err)
		return
	}
	o.records = int32(bytes.Count(records, []byte{'\n'}))
	o.answer = &answer{partial: end.Partial, gap: end.Gap}
	if end.State != serve.StateDone {
		o.err = fmt.Errorf("%s query: end state %q (%s)", r.Kind, end.State, end.Error)
		return
	}
	if r.Kind == kindBudget {
		if end.Partial != (end.Gap != nil) {
			o.err = fmt.Errorf("budgeted query: partial=%v but gap present=%v", end.Partial, end.Gap != nil)
			return
		}
		o.answer.scores, o.err = recordScores(records)
		return
	}
	if resp.cache != "MISS" {
		o.err = fmt.Errorf("cold %s query answered X-Cache %q, want MISS", r.Kind, resp.cache)
		return
	}
	if end.Partial {
		o.err = fmt.Errorf("cold %s query answered partial", r.Kind)
		return
	}
	if ck.keep[i] {
		o.answer.body = bytes.Clone(records)
	}
}

// splitStream separates an NDJSON answer into its record lines (each with
// its newline) and the parsed end frame.
func splitStream(body []byte) ([]byte, serve.EndFrame, error) {
	var end serve.EndFrame
	trimmed := bytes.TrimSuffix(body, []byte{'\n'})
	cut := bytes.LastIndexByte(trimmed, '\n') + 1
	if err := json.Unmarshal(trimmed[cut:], &end); err != nil || !end.End {
		return nil, end, fmt.Errorf("stream does not end with an end frame: %q", firstLine(trimmed[cut:]))
	}
	return body[:cut], end, nil
}

func recordScores(records []byte) ([]float64, error) {
	var scores []float64
	for _, line := range bytes.Split(bytes.TrimSuffix(records, []byte{'\n'}), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec serve.GroupRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Score == nil {
			return nil, fmt.Errorf("budgeted record without a score: %q", firstLine(line))
		}
		scores = append(scores, *rec.Score)
	}
	return scores, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// verify runs the post-phase checks and returns the mean recall of the
// budgeted answers (NaN when there were none).
func (ck *checker) verify(ctx context.Context, outs []outcome) (meanRecall float64, err error) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.answer == nil || o.answer.body == nil {
			continue
		}
		spec := ck.plan[i].Spec
		if ck.plan[i].Kind == kindScale {
			o.err = ck.checkReplication(ctx, spec, o.answer.body)
		} else {
			o.err = ck.checkReference(ctx, spec, o.answer.body)
		}
		o.answer.body = nil
	}

	var recalls []float64
	for i := range outs {
		o := &outs[i]
		if ck.plan[i].Kind != kindBudget || o.err != nil {
			continue
		}
		exact := ck.exact[ck.plan[i].Spec.Dataset]
		recalls = append(recalls, recall(o.answer.scores, exact))
		if !o.answer.partial && !slices.Equal(o.answer.scores, exact) {
			o.err = fmt.Errorf("unpartial budgeted answer on %s differs from the exact top-k", ck.plan[i].Spec.Dataset)
		}
	}
	return mean(recalls), ctx.Err()
}

// checkReference compares an answer byte for byte with the records the
// library entry points produce for the same spec.
func (ck *checker) checkReference(ctx context.Context, spec *serve.QuerySpec, got []byte) error {
	want, err := referenceRecords(ctx, ck.fx.sets[spec.Dataset].d, spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s on %s: answer differs from the library reference (%d vs %d bytes)", spec.Miner, spec.Dataset, len(got), len(want))
	}
	return nil
}

// referenceRecords mines spec in-process through the canonical Run* entry
// points and encodes each record as the wire format does (json.Marshal
// plus a newline), in the order the daemon emits them: streamed for
// sequential FARMER and the closed-pattern miners, batch otherwise.
func referenceRecords(ctx context.Context, d *farmer.Dataset, spec *serve.QuerySpec) ([]byte, error) {
	var out bytes.Buffer
	emit := func(v any) error {
		raw, err := json.Marshal(v)
		out.Write(raw)
		out.WriteByte('\n')
		return err
	}
	class := 0
	if spec.Class != "" {
		if class = d.ClassIndex(spec.Class); class < 0 {
			return nil, fmt.Errorf("unknown class %q", spec.Class)
		}
	}
	var err error
	switch spec.Miner {
	case "farmer":
		opt := farmer.MineOptions{MinSup: spec.MinSup, MinConf: spec.MinConf, MinChi: spec.MinChi,
			ComputeLowerBounds: spec.LowerBounds, Workers: spec.Workers}
		if spec.Workers == 0 {
			opt.OnGroup = func(g farmer.RuleGroup) error { return emit(serve.MakeGroupRecord(d, g)) }
			_, err = farmer.RunFARMER(ctx, d, class, opt)
			break
		}
		var res *farmer.MineResult
		if res, err = farmer.RunFARMER(ctx, d, class, opt); err == nil {
			for _, g := range res.Groups {
				if err = emit(serve.MakeGroupRecord(d, g)); err != nil {
					break
				}
			}
		}
	case "topk":
		var m farmer.Measure
		if m, err = farmer.ParseMeasure(spec.Measure); err != nil {
			break
		}
		var res *farmer.TopKResult
		if res, err = farmer.RunTopK(ctx, d, class, farmer.TopKOptions{K: spec.K, Measure: m, MinSup: spec.MinSup}); err == nil {
			for _, g := range res.Groups {
				rec := serve.MakeGroupRecord(d, g.RuleGroup)
				rec.Score = &g.Score
				if err = emit(rec); err != nil {
					break
				}
			}
		}
	case "charm":
		_, err = farmer.RunCHARM(ctx, d, farmer.CharmOptions{MinSup: spec.MinSup, OnClosed: func(c farmer.ClosedSet) error {
			return emit(serve.ClosedRecord{Items: itemNames(d, c.Items), Support: c.Support})
		}})
	case "carpenter":
		_, err = farmer.RunCARPENTER(ctx, d, farmer.CarpenterOptions{MinSup: spec.MinSup, OnClosed: func(p farmer.ClosedPattern) error {
			return emit(serve.ClosedRecord{Items: itemNames(d, p.Items), Support: p.Support})
		}})
	case "cobbler":
		_, err = farmer.RunCOBBLER(ctx, d, farmer.CobblerOptions{MinSup: spec.MinSup, OnClosed: func(p farmer.CobblerClosedPattern) error {
			return emit(serve.ClosedRecord{Items: itemNames(d, p.Items), Support: p.Support})
		}})
	default:
		err = fmt.Errorf("no reference for miner %q", spec.Miner)
	}
	if err != nil {
		return nil, fmt.Errorf("reference %s on %s: %w", spec.Miner, spec.Dataset, err)
	}
	return out.Bytes(), nil
}

func itemNames(d *farmer.Dataset, items []farmer.Item) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = d.ItemName(it)
	}
	return names
}

// checkReplication asserts the §4.1 replication invariant on a replica
// answer: mining the k-fold replica at minsup m returns exactly the groups
// of the unreplicated dataset at minsup m/k — same antecedents and
// confidences, supports multiplied by k.
func (ck *checker) checkReplication(ctx context.Context, spec *serve.QuerySpec, got []byte) error {
	set := ck.fx.sets[spec.Dataset]
	base := ck.fx.sets[set.base].d
	k := set.factor
	res, err := farmer.RunFARMER(ctx, base, base.ClassIndex(spec.Class), farmer.MineOptions{MinSup: spec.MinSup / k, MinConf: spec.MinConf})
	if err != nil {
		return fmt.Errorf("replication reference on %s: %w", set.base, err)
	}
	byAnt := map[string]serve.GroupRecord{}
	for _, line := range bytes.Split(bytes.TrimSuffix(got, []byte{'\n'}), []byte{'\n'}) {
		var rec serve.GroupRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("%s: bad record %q", spec.Dataset, firstLine(line))
		}
		byAnt[antecedentKey(rec.Antecedent)] = rec
	}
	if len(byAnt) != len(res.Groups) {
		return fmt.Errorf("%s: %d groups, unreplicated %s has %d", spec.Dataset, len(byAnt), set.base, len(res.Groups))
	}
	for _, g := range res.Groups {
		want := serve.MakeGroupRecord(base, g)
		rec, ok := byAnt[antecedentKey(want.Antecedent)]
		switch {
		case !ok:
			return fmt.Errorf("%s: group %v of %s missing", spec.Dataset, want.Antecedent, set.base)
		case rec.SupPos != k*want.SupPos || rec.SupNeg != k*want.SupNeg:
			return fmt.Errorf("%s: group %v supports %d/%d, want %d×%d/%d", spec.Dataset, want.Antecedent, rec.SupPos, rec.SupNeg, k, want.SupPos, want.SupNeg)
		case rec.Confidence != want.Confidence:
			return fmt.Errorf("%s: group %v confidence %v, want %v", spec.Dataset, want.Antecedent, rec.Confidence, want.Confidence)
		}
	}
	return nil
}

func antecedentKey(items []string) string {
	s := slices.Clone(items)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// checkRepeats applies the cache contract to the repeats of the hot set
// among outs[lo:hi], the requests of one daemon life. A repeat that no
// re-PUT of its dataset could have reached must be a HIT;
// the first repeat of a spec sent after a re-PUT of its dataset completed
// must be a MISS, unless another repeat of the same spec or another re-PUT
// of the dataset overlapped it and may have refilled the cache. Conditional
// repeats answer 304 without an X-Cache verdict that matters here.
func (ck *checker) checkRepeats(outs []outcome, lo, hi int) {
	puts := map[string][]int{}
	repeats := map[int][]int{}
	for i := lo; i < hi; i++ {
		r := &ck.plan[i]
		switch {
		case r.Kind == kindPut && outs[i].err == nil:
			puts[r.Put] = append(puts[r.Put], i)
		case r.Kind == kindRepeat && outs[i].done != 0:
			repeats[r.Hot] = append(repeats[r.Hot], i)
		}
	}
	for h, idx := range repeats {
		sort.Slice(idx, func(a, b int) bool { return outs[idx[a]].sent < outs[idx[b]].sent })
		ds := ck.fx.hot[h].Dataset
		for n, i := range idx {
			o := &outs[i]
			if o.err != nil || ck.plan[i].IfNoneMatch {
				continue
			}
			var before, overlapping []int // re-PUTs done before o was sent, or overlapping o
			for _, p := range puts[ds] {
				switch {
				case outs[p].done < o.sent:
					before = append(before, p)
				case outs[p].sent < o.done:
					overlapping = append(overlapping, p)
				}
			}
			if len(before) == 0 && len(overlapping) == 0 {
				if o.cache != "HIT" {
					o.err = fmt.Errorf("repeat of hot spec %d answered X-Cache %q with no re-PUT before it, want HIT", h, o.cache)
				}
				continue
			}
			if len(before) == 0 || len(overlapping) > 0 {
				continue
			}
			last := outs[before[len(before)-1]]
			for _, p := range before {
				if outs[p].done > last.done {
					last = outs[p]
				}
			}
			// Another repeat of the spec that was in flight while the re-PUT
			// or o was may have mined and cached the answer first: one sent
			// just after o on another connection can reach the daemon first.
			first := true
			for m, j := range idx {
				if m != n && outs[j].sent < o.done && outs[j].done > last.sent {
					first = false
				}
			}
			if first && o.cache != "MISS" {
				o.err = fmt.Errorf("first repeat of hot spec %d after a re-PUT of %s answered X-Cache %q, want MISS", h, ds, o.cache)
			}
		}
	}
}
