package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	farmer "repro"
	"repro/internal/serve"
	"repro/internal/synth"
)

// benchNames are the five synth.BenchSpec datasets (Table 1 at bench
// scale, 18–20 rows) every workload mines.
var benchNames = []string{"BC", "LC", "CT", "PC", "ALL"}

// scaleFactors are the §4.1 row replications the scaleup workload mines:
// ×2 and ×4 put every bench dataset at 36–80 rows, above
// farmer.ParallelFallbackRows, so the auto mode takes the parallel
// scheduler.
var scaleFactors = []int{2, 4}

// benchSet is one dataset a workload registers: its transactions text (the
// PUT body) and the dataset parsed back from that text, so library
// references mine exactly what the daemon mines.
type benchSet struct {
	name   string
	base   string // the unreplicated dataset; name itself for a base set
	factor int    // row replication factor, 1 for a base set
	d      *farmer.Dataset
	text   []byte
	// mid is the representative minsup of the Figure-10 sweep (a third of
	// class 0, at least 2), scaled by factor on replicas.
	mid int
}

// fixture holds every dataset and spec pool the workloads draw from. It
// depends on nothing but the synth specs, so it is identical across seeds
// and commits; the seed only chooses and orders requests.
type fixture struct {
	sets map[string]*benchSet
	// hot is the primed hot set of dashboard and interactive: per dataset
	// two FARMER specs with lower bounds, one top-k and one CHARM, plus
	// FARMER at a second confidence for the first four datasets. CHARM asks
	// for minsup mid+7, where its answer is 75–150 KB like the FARMER ones:
	// at mid its 1–2.6 MB answers would turn dashboard into a test of
	// loopback copy bandwidth, and a re-PUT into 100 ms re-mines.
	hot []serve.QuerySpec
}

func newFixture() (*fixture, error) {
	fx := &fixture{sets: map[string]*benchSet{}}
	add := func(name, base string, factor int, d *farmer.Dataset) error {
		var buf bytes.Buffer
		if err := farmer.WriteTransactions(&buf, d); err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		parsed, err := farmer.ReadTransactions(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("parse %s: %w", name, err)
		}
		mid := parsed.ClassCount(0) / factor / 3
		if mid < 2 {
			mid = 2
		}
		fx.sets[name] = &benchSet{name: name, base: base, factor: factor, d: parsed, text: buf.Bytes(), mid: mid * factor}
		return nil
	}
	for _, name := range benchNames {
		spec, ok := synth.BenchSpec(name)
		if !ok {
			return nil, fmt.Errorf("no bench spec %q", name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		if err := add(name, name, 1, d); err != nil {
			return nil, err
		}
	}
	for _, name := range benchNames {
		for _, k := range scaleFactors {
			if err := add(replicaName(name, k), name, k, farmer.Replicate(fx.sets[name].d, k)); err != nil {
				return nil, err
			}
		}
	}
	for i, name := range benchNames {
		s := fx.sets[name]
		c0, c1 := s.d.ClassNames[0], s.d.ClassNames[1]
		fx.hot = append(fx.hot,
			serve.QuerySpec{Miner: "farmer", Dataset: name, Class: c0, MinSup: s.mid, MinConf: 0.5, LowerBounds: true},
			serve.QuerySpec{Miner: "farmer", Dataset: name, Class: c1, MinSup: s.mid, MinConf: 0.5, LowerBounds: true},
			serve.QuerySpec{Miner: "topk", Dataset: name, Class: c0, MinSup: s.mid, K: 10, Measure: "chi2"},
			serve.QuerySpec{Miner: "charm", Dataset: name, MinSup: s.mid + 7},
		)
		if i < 4 {
			fx.hot = append(fx.hot, serve.QuerySpec{Miner: "farmer", Dataset: name, Class: c0, MinSup: s.mid, MinConf: 0.8, LowerBounds: true})
		}
	}
	return fx, nil
}

func replicaName(name string, k int) string { return name + "_x" + strconv.Itoa(k) }

// Kind classifies a planned request; checks and per-kind metrics key on it.
type Kind string

const (
	kindFarmer Kind = "farmer" // cold FARMER query
	kindTopK   Kind = "topk"   // cold exact top-k query
	kindClosed Kind = "closed" // cold CHARM, CARPENTER or COBBLER query
	kindScale  Kind = "scale"  // cold parallel FARMER query on a replica
	kindRepeat Kind = "repeat" // repeat of a primed hot-set spec
	kindBudget Kind = "budget" // budgeted (max_millis) best-first top-k
	kindPut    Kind = "put"    // re-PUT of a dataset with identical bytes
)

// Req is one planned request. Queries POST Spec to /v1/query; a put sends
// the dataset's transactions text to PUT /v1/datasets/{Put}.
type Req struct {
	Kind Kind             `json:"kind"`
	Spec *serve.QuerySpec `json:"spec,omitempty"`
	// Hot indexes the hot set for a repeat; IfNoneMatch sends the primed
	// ETag with it.
	Hot         int    `json:"hot,omitempty"`
	IfNoneMatch bool   `json:"if_none_match,omitempty"`
	Put         string `json:"put,omitempty"`
	// At is the open-loop send time, in nanoseconds from the phase start.
	At int64 `json:"at,omitempty"`
}

// farmerPool is every cold FARMER query of the threshold sweep: per base
// dataset and class, minsup at mid±1, minconf on the 0.000–0.975 grid in
// steps of 0.025, with and without lower bounds — 2380 distinct specs. The
// hot set asks for minsup mid at confidences 0.5 and 0.8 with lower bounds;
// those specs are left out, so no cold query can hit a primed answer.
func (fx *fixture) farmerPool() []serve.QuerySpec {
	var pool []serve.QuerySpec
	for _, name := range benchNames {
		s := fx.sets[name]
		for _, class := range s.d.ClassNames {
			for ms := s.mid - 1; ms <= s.mid+1; ms++ {
				for i := 0; i < 40; i++ {
					for _, lb := range []bool{false, true} {
						if lb && ms == s.mid && (i == 20 || i == 32) {
							continue
						}
						pool = append(pool, serve.QuerySpec{Miner: "farmer", Dataset: name, Class: class, MinSup: ms, MinConf: float64(i) / 40, LowerBounds: lb})
					}
				}
			}
		}
	}
	return pool
}

// fixedDraw returns n items of pool, the same n for every seed, in an
// order the seed does not set either. Which queries a plan holds is fixed
// because a query's cost varies tenfold across a pool: drawing them per
// seed moved the tail latency by more than a regression bound.
func fixedDraw[T any](pool []T, n int) []T {
	rand.New(rand.NewSource(1)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(n, len(pool))]
}

// farmerDraws returns n distinct FARMER queries from the sweep pool; a
// quarter of them ask for the parallel auto mode (workers:-1), which falls
// back to sequential mining below 32 rows.
func farmerDraws(fx *fixture, n int) []serve.QuerySpec {
	pool := fixedDraw(fx.farmerPool(), n)
	for i := 0; i < len(pool); i += 4 {
		pool[i].Workers = -1
	}
	return pool
}

// explorePlan is the analyst's threshold sweep: about 80% FARMER, 10%
// exact top-k (k ∈ {10,20}, three measures, both classes, minsup mid±1)
// and 10% closed-pattern baselines (CHARM, CARPENTER, COBBLER at minsup
// mid+2..mid+6, where their answers stay below 1.5 MB; CLOSET takes
// seconds per query and would dominate the run). Every spec is distinct,
// so every request misses the cache; the top-k pool of 180 and the
// baseline pool of 75 cap their shares in long runs.
func explorePlan(fx *fixture, _ *rand.Rand, n int) []Req {
	var topk, closed []serve.QuerySpec
	for _, name := range benchNames {
		s := fx.sets[name]
		for _, class := range s.d.ClassNames {
			for ms := s.mid - 1; ms <= s.mid+1; ms++ {
				for _, k := range []int{10, 20} {
					for _, m := range []string{"chi2", "entropy", "gini"} {
						topk = append(topk, serve.QuerySpec{Miner: "topk", Dataset: name, Class: class, MinSup: ms, K: k, Measure: m})
					}
				}
			}
		}
		for _, miner := range []string{"charm", "carpenter", "cobbler"} {
			for ms := s.mid + 2; ms <= s.mid+6; ms++ {
				closed = append(closed, serve.QuerySpec{Miner: miner, Dataset: name, MinSup: ms})
			}
		}
	}
	nt := min(max(n/10, 1), len(topk))
	nc := min(max(n/10, 1), len(closed))
	var plan []Req
	for _, s := range farmerDraws(fx, max(n-nt-nc, 1)) {
		plan = append(plan, Req{Kind: kindFarmer, Spec: ptr(s)})
	}
	for _, s := range fixedDraw(topk, nt) {
		plan = append(plan, Req{Kind: kindTopK, Spec: ptr(s)})
	}
	for _, s := range fixedDraw(closed, nc) {
		plan = append(plan, Req{Kind: kindClosed, Spec: ptr(s)})
	}
	return plan
}

// dashboardPlan repeats the primed hot set: uniform seeded picks, 30% of
// them conditional on the primed ETag.
func dashboardPlan(fx *fixture, rng *rand.Rand, n int) []Req {
	plan := make([]Req, n)
	for i := range plan {
		h := rng.Intn(len(fx.hot))
		plan[i] = Req{Kind: kindRepeat, Spec: &fx.hot[h], Hot: h, IfNoneMatch: rng.Float64() < 0.3}
	}
	return plan
}

// scaleupPlan draws distinct parallel FARMER queries on the replicas:
// per replica and class, minsup scaled with the replication and twelve
// confidence levels — a pool of 240, which a 30 s phase asks in full.
func scaleupPlan(fx *fixture, _ *rand.Rand, n int) []Req {
	var pool []serve.QuerySpec
	for _, name := range benchNames {
		for _, k := range scaleFactors {
			s := fx.sets[replicaName(name, k)]
			for _, class := range s.d.ClassNames {
				for i := 0; i < 12; i++ {
					pool = append(pool, serve.QuerySpec{Miner: "farmer", Dataset: s.name, Class: class, MinSup: s.mid, MinConf: float64(i) / 12, Workers: -1})
				}
			}
		}
	}
	pool = fixedDraw(pool, n)
	plan := make([]Req, len(pool))
	for i := range pool {
		plan[i] = Req{Kind: kindScale, Spec: &pool[i]}
	}
	return plan
}

// budgetCase is one budgeted top-k shape of the interactive workload:
// benchjson's quality-harness case for the dataset (class, k, minsup),
// mined on its ×4 replica with minsup scaled by 4.
type budgetCase struct {
	base, class string
	k, minsup   int
}

var budgetCases = []budgetCase{
	{"BC", "relapse", 20, 2},
	{"LC", "ADCA", 10, 3},
	{"CT", "negative", 20, 4},
	{"PC", "tumor", 30, 2},
}

// budgetMillis is the wall-clock budget (max_millis) of every budgeted
// query. At the seed commit each case's recall lands between 0.6 and 0.9
// at 3 ms, and one budget for all cases gives budgeted answers a single
// latency mode.
const budgetMillis = 3

func (c budgetCase) spec() serve.QuerySpec {
	return serve.QuerySpec{Miner: "topk", Dataset: replicaName(c.base, 4), Class: c.class, K: c.k,
		MinSup: 4 * c.minsup, Measure: "chi2", MaxMillis: budgetMillis}
}

// interactivePlan is the open loop's n requests: 55% repeat the primed hot
// set, 25% are budgeted top-k queries, 15% distinct cold FARMER queries
// and 5% re-PUT a base dataset with identical bytes, which invalidates its
// cached answers. The mix is exact: the counts of each kind, the budget
// cases, the datasets re-PUT and the hot specs repeated are the same for
// every seed.
func interactivePlan(fx *fixture, _ *rand.Rand, n int) []Req {
	nb, nf, np := n*25/100, n*15/100, n*5/100
	cold := farmerDraws(fx, nf)
	plan := make([]Req, n)
	for i := range plan {
		r := &plan[i]
		switch {
		case i < nb:
			s := budgetCases[i%len(budgetCases)].spec()
			r.Kind, r.Spec = kindBudget, &s
		case i < nb+len(cold):
			r.Kind, r.Spec = kindFarmer, &cold[i-nb]
		case i < nb+len(cold)+np:
			r.Kind, r.Put = kindPut, benchNames[i%len(benchNames)]
		default:
			r.Kind, r.Hot = kindRepeat, i%len(fx.hot)
			r.Spec = &fx.hot[r.Hot]
		}
	}
	return plan
}

func ptr[T any](v T) *T { return &v }
