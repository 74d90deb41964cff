// Package cardest implements the paper's cast of cardinality estimators and
// the injection mechanism that feeds them into the optimizer.
//
// Estimates decompose, as in all System-R descendants, into per-relation
// selectivities and per-join-predicate selectivities combined under the
// independence assumption. The five profiles differ in how they estimate
// base-table selectivities and whether they damp the independence
// assumption:
//
//   - PostgreSQL: MCVs + equi-depth histograms + sampled distinct counts,
//     magic constants for LIKE, plain independence, estimates clamped to
//     >= 1 row (the rounding artifact of the paper's footnote 6).
//   - HyPer: evaluates base predicates on a 1000-row table sample, falling
//     back to a magic constant when the sample yields zero hits (§3.1).
//   - DBMS A: sample-based base estimates plus exponential backoff over the
//     join selectivities — the "damping factor" the paper speculates about
//     in §3.2, which keeps medians near the truth.
//   - DBMS B: pure uniformity (1/ndistinct, no MCVs) and an aggressive
//     extra shrink per join: severe underestimation, "1 row" for deep joins.
//   - DBMS C: histograms for numeric predicates but magic constants for all
//     string predicates: large base-table overestimates (Table 1, row C).
//
// Every profile, and the true-cardinality provider True, is a Provider:
// interchangeable inputs to the optimizer, replicating the paper's §2.4
// cardinality-injection methodology.
package cardest

import (
	"fmt"
	"math"
	"slices"

	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

// Provider supplies cardinalities for the subexpressions of one query.
type Provider interface {
	// Card returns the estimated result size of joining the relations in
	// s (with all selections applied). s must be a connected subgraph.
	Card(s query.BitSet) float64
	// SansSelection returns the estimate for s with relation r's selection
	// discarded (the index-nested-loop intermediate of §2.4).
	SansSelection(s query.BitSet, r int) float64
	// Name identifies the estimator for reports.
	Name() string
}

// Estimator builds a Provider for a query. Implementations are stateless
// with respect to queries; all per-database state (statistics, samples) is
// captured at construction.
type Estimator interface {
	ForQuery(g *query.Graph) Provider
	Name() string
}

// dampExp is the per-predicate softening exponent of the DBMS A profile's
// damping: each join selectivity beyond the most selective one enters the
// product as sel^dampExp instead of sel. Values near 1 damp gently; the
// paper's DBMS A stays within a few factors of the truth even at 6 joins,
// which this setting reproduces.
const dampExp = 0.82

// formula is the shared product-form provider.
type formula struct {
	name     string
	g        *query.Graph
	baseRows []float64 // |R_i|
	sel      []float64 // estimated selection selectivity per relation
	edgeSel  []float64 // estimated selectivity per join edge

	// damping softens the edge selectivities beyond the most selective
	// one (sel^dampExponent each), the DBMS A signature behaviour;
	// dampExponent defaults to dampExp.
	damping      bool
	dampExponent float64
	// shrink, if in (0,1), multiplies the estimate by shrink^(edges-2) for
	// subexpressions with more than 2 join edges (the DBMS B signature).
	shrink float64
}

func (f *formula) Name() string { return f.name }

func (f *formula) Card(s query.BitSet) float64 {
	return f.card(s, -1)
}

func (f *formula) SansSelection(s query.BitSet, r int) float64 {
	return f.card(s, r)
}

func (f *formula) card(s query.BitSet, skipSel int) float64 {
	// One pass over s multiplies in its relations and finds the edges
	// within s the way Graph.EdgesWithin does.
	rows := 1.0
	var touch, leave query.EdgeSet
	s.ForEach(func(i int) {
		rows *= f.baseRows[i]
		if i != skipSel {
			rows *= f.sel[i]
		}
		touch |= f.g.IncidentTo(i)
		leave ^= f.g.IncidentTo(i)
	})
	edges := touch &^ leave
	n := edges.Count()
	if f.damping && n > 1 {
		// Damping: the most selective join predicate applies fully, every
		// further one is softened slightly (selectivity^dampExp). The more
		// predicates pile up, the less the estimator trusts their joint
		// independence — which is exactly the behaviour the paper deduces
		// for DBMS A from its truth-hugging medians (§3.2).
		var buf [64]float64
		sels := buf[:0]
		edges.ForEach(func(e int) { sels = append(sels, f.edgeSel[e]) })
		slices.Sort(sels)
		exp := f.dampExponent
		if exp == 0 {
			exp = dampExp
		}
		rows *= sels[0]
		for _, sv := range sels[1:] {
			rows *= math.Pow(sv, exp)
		}
	} else {
		edges.ForEach(func(e int) { rows *= f.edgeSel[e] })
	}
	if f.shrink > 0 && f.shrink < 1 && n > 2 {
		rows *= math.Pow(f.shrink, float64(n-2))
	}
	if rows < 1 {
		// All systems round up to one row; §3.2's footnote 6 traces some of
		// PostgreSQL's instability to exactly this clamp.
		rows = 1
	}
	return rows
}

// baseSelEstimator estimates the selectivity of one relation's predicate
// conjunction.
type baseSelEstimator interface {
	relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64
}

// profile is an estimator profile: the recipe each query's formula is
// built from. The five systems and the damping ablation's variants are
// values of it that differ only in these fields.
type profile struct {
	name string
	db   *storage.Database
	sdb  *stats.DB
	base baseSelEstimator
	// damping, dampExponent and shrink are copied into every formula.
	damping      bool
	dampExponent float64
	shrink       float64
}

// Name implements Estimator.
func (p *profile) Name() string { return p.name }

// ForQuery implements Estimator: it assembles the shared product form for
// one query.
func (p *profile) ForQuery(g *query.Graph) Provider {
	f := &formula{
		name:         p.name,
		g:            g,
		baseRows:     make([]float64, g.N),
		sel:          make([]float64, g.N),
		damping:      p.damping,
		dampExponent: p.dampExponent,
		shrink:       p.shrink,
	}
	for i, rel := range g.Q.Rels {
		t := p.db.MustTable(rel.Table)
		ts := p.sdb.Table(rel.Table)
		f.baseRows[i] = math.Max(1, float64(ts.RowCount))
		f.sel[i] = clampSel(p.base.relSelectivity(rel, t, ts))
	}
	f.edgeSel = make([]float64, len(g.Edges))
	for ei, e := range g.Edges {
		// Join selectivity 1 / max(dom(x), dom(y)) per predicate; multiple
		// predicates on one edge multiply (independence again).
		sel := 1.0
		for _, j := range e.Preds {
			lRel := g.Q.Rels[g.Q.RelIndex(j.LeftAlias)]
			rRel := g.Q.Rels[g.Q.RelIndex(j.RightAlias)]
			nd1 := p.sdb.Table(lRel.Table).Cols[j.LeftCol].NDistinct
			nd2 := p.sdb.Table(rRel.Table).Cols[j.RightCol].NDistinct
			sel *= 1 / math.Max(1, math.Max(nd1, nd2))
		}
		f.edgeSel[ei] = sel
	}
	return f
}

func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// --- the five estimator profiles -------------------------------------------

// NewPostgres builds the PostgreSQL profile from ANALYZE statistics. Passing
// statistics computed with Options.TrueDistinct yields the paper's Fig. 5
// "true distinct counts" variant.
func NewPostgres(db *storage.Database, sdb *stats.DB) Estimator {
	return &profile{name: "PostgreSQL", db: db, sdb: sdb, base: histogramBase{likeSel: 0.005}}
}

// NewSample builds the HyPer profile: base-table predicates are evaluated on
// the (1000-row) table sample kept in the statistics.
func NewSample(db *storage.Database, sdb *stats.DB) Estimator {
	return &profile{name: "HyPer", db: db, sdb: sdb, base: sampleBase{size: 1000}}
}

// NewDBMSA builds the DBMS A profile, the "best commercial estimator":
// sampling plus damping.
func NewDBMSA(db *storage.Database, sdb *stats.DB) Estimator {
	return &profile{name: "DBMS A", db: db, sdb: sdb, base: sampleBase{size: 2000}, damping: true}
}

// NewDBMSB builds the DBMS B profile: severe underestimation.
func NewDBMSB(db *storage.Database, sdb *stats.DB) Estimator {
	return &profile{name: "DBMS B", db: db, sdb: sdb, base: uniformBase{}, shrink: 0.2}
}

// NewDBMSC builds the DBMS C profile: magic constants that overestimate
// string predicates.
func NewDBMSC(db *storage.Database, sdb *stats.DB) Estimator {
	return &profile{name: "DBMS C", db: db, sdb: sdb, base: magicBase{}}
}

// NewDamped builds a DBMS A-style estimator with an explicit damping
// exponent (1.0 disables damping entirely and reduces to plain
// independence). It exists for the damping ablation study.
func NewDamped(db *storage.Database, sdb *stats.DB, exponent float64) Estimator {
	return &profile{name: fmt.Sprintf("damped(%.2f)", exponent), db: db, sdb: sdb,
		base: sampleBase{size: 2000}, damping: true, dampExponent: exponent}
}

// --- true cardinalities -----------------------------------------------------

// True adapts a truecard.Store into a Provider.
type True struct {
	Store *truecard.Store
}

// Name implements Provider.
func (True) Name() string { return "true cardinalities" }

// Card implements Provider.
func (t True) Card(s query.BitSet) float64 {
	v, ok := t.Store.Card(s)
	if !ok {
		panic(fmt.Sprintf("cardest: true cardinality for %v not computed", s))
	}
	return v
}

// SansSelection implements Provider.
func (t True) SansSelection(s query.BitSet, r int) float64 {
	v, ok := t.Store.SansSelection(s, r)
	if !ok {
		panic(fmt.Sprintf("cardest: sans-selection cardinality for %v/%d not computed", s, r))
	}
	return v
}

// Pessimistic hedges against systematic underestimation (the "risk/reward
// tradeoff" future work of §8): it inflates a base provider's estimate by
// Factor per join in the subexpression, so deep intermediates — exactly
// where independence collapses — look bigger to the optimizer, which then
// avoids plans whose advantage hinges on tiny deep intermediates.
type Pessimistic struct {
	Base   Provider
	G      *query.Graph
	Factor float64 // per-join inflation, e.g. 2.0
}

// Name implements Provider.
func (p *Pessimistic) Name() string {
	return fmt.Sprintf("pessimistic(%s, %.1fx/join)", p.Base.Name(), p.Factor)
}

// Card implements Provider.
func (p *Pessimistic) Card(s query.BitSet) float64 {
	return p.Base.Card(s) * p.inflation(s)
}

// SansSelection implements Provider.
func (p *Pessimistic) SansSelection(s query.BitSet, r int) float64 {
	return p.Base.SansSelection(s, r) * p.inflation(s)
}

func (p *Pessimistic) inflation(s query.BitSet) float64 {
	n := p.G.EdgesWithin(s).Count()
	if n == 0 {
		return 1
	}
	f := p.Factor
	if f <= 0 {
		f = 2
	}
	return math.Pow(f, float64(n))
}
