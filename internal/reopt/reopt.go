// Package reopt implements adaptive re-optimization — the paper's "use
// observed cardinalities instead of estimates" endgame.
//
// The execution loop (Run) executes prefixes of the chosen plan through the
// block engine, compares each observed intermediate cardinality against the
// optimizer's estimate, and when the q-error exceeds a threshold re-enters
// plan enumeration over the whole query with the observation pinned and
// propagated to supersets (a Propagator over the original provider). Work
// is accounted the way a materializing executor would pay it: each probe is
// charged incrementally over the intermediates it reuses, subtrees that
// survive into the final plan are refunded from the final execution, and
// intermediates invalidated by a replan stay charged. Every run starts
// cold: nothing observed outlives it.
package reopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/engine"
	"jobench/internal/enum"
	"jobench/internal/metrics"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
	"jobench/internal/trace"
)

// DefaultQErrThreshold is the q-error above which an observed intermediate
// triggers re-optimization. 2 is deliberately tight: the paper's Figure 3
// shows estimates degrading by orders of magnitude per join level, so a
// factor-2 surprise at the bottom of the tree is already a strong signal.
const DefaultQErrThreshold = 2

// DefaultMaxReplans bounds how many times one query may re-enter the
// enumerator.
const DefaultMaxReplans = 4

// DefaultMaxProbeRels bounds how far up the plan the executor probes: only
// subtrees joining at most this many relations are executed for
// observation. The first joins are where the paper shows estimates start
// to degrade, and they are cheap to materialize; probing high subtrees
// risks invalidating expensive intermediates on every replan for
// observations the enumerator can rarely exploit.
const DefaultMaxProbeRels = 3

// probeOverrunFactor bounds each probe's work budget at this multiple of
// the subtree's expected work (the sum of its estimated cardinalities). A
// probe that overruns the budget has already proven the estimate wrong —
// a mid-query re-optimizer aborts it there instead of materializing the
// full explosion, charges only the work done, and replans with the
// overrun pinned as a lower-bound correction.
const probeOverrunFactor = 10

// probeBudgetFloor keeps probe budgets above engine block granularity so
// small accurate probes never trip the overrun abort.
const probeBudgetFloor = 4096

// replanMargin scales the current plan's cost in the replan gate. Both
// sides of the gate are priced under the same feedback-corrected estimates
// and net of the materialized intermediates each plan can reuse, which
// makes invalidation a first-class cost: a candidate that abandons every
// intermediate must predict enough of a win to pay for rebuilding from
// scratch, while one that keeps them switches almost for free. With the
// netting in place no extra safety margin is needed — 1.0 switches on any
// genuine predicted win.
const replanMargin = 1.0

// Config is what an adaptive execution adds to the plan space it runs in:
// the enumeration algorithm, the execution settings and the
// re-optimization policy.
type Config struct {
	// Algorithm and Seed select the enumerator, as optimizer.Optimize
	// takes them.
	Algorithm optimizer.Algorithm
	Seed      int64

	// Rehash and WorkLimit configure execution (probes and the final plan
	// alike) exactly as engine.Config does.
	Rehash    bool
	WorkLimit int64

	// QErrThreshold is the q-error above which a probe triggers a replan
	// (non-positive selects DefaultQErrThreshold).
	QErrThreshold float64
	// MaxReplans bounds re-optimizations per query (non-positive selects
	// DefaultMaxReplans).
	MaxReplans int
}

// Step records one probe: a plan subtree executed to observe its true
// cardinality.
type Step struct {
	// S is the relation set of the probed subtree.
	S query.BitSet
	// Estimate is the optimizer's cardinality estimate for S.
	Estimate float64
	// Observed is the materialized row count.
	Observed float64
	// QError is the q-error between the two.
	QError float64
	// Aborted reports that the probe overran its work budget and was cut
	// off; Observed is then a lower-bound correction, not truth.
	Aborted bool
	// PredictedGain is the re-optimized candidate's estimated cost over the
	// current plan's (both priced under the feedback-corrected estimates)
	// when a replan was considered; 0 when the q-error stayed under the
	// threshold.
	PredictedGain float64
	// Replanned reports whether this probe triggered re-optimization.
	Replanned bool
}

// Result reports an adaptive execution.
type Result struct {
	// Rows is the final result cardinality.
	Rows int64
	// Work is the adaptive cost in engine work units, modelling an executor
	// that materializes probe intermediates bottom-up and reuses them:
	// each probe is charged incrementally (its subtree work minus the
	// already-materialized children it would reuse), and subtrees that
	// survive verbatim into the final plan are refunded from the final
	// execution (the executor reuses the intermediate instead of
	// recomputing it). When no replan occurs the charges and refunds cancel
	// exactly and Work equals what static execution of the same plan
	// costs; every replan's invalidated intermediates stay charged.
	Work int64
	// FinalWork is the final plan's execution alone.
	FinalWork int64
	// ProbeWork is the total work spent probing (reused or not).
	ProbeWork int64
	// TimedOut reports that a probe or the final execution exceeded the
	// work limit.
	TimedOut bool
	// Replans counts re-optimizations triggered.
	Replans int
	// Steps lists the probes in execution order.
	Steps []Step
	// Plan is the plan the execution ended on.
	Plan *plan.Node
}

// Run executes sp's query adaptively: optimize in sp, execute plan subtrees
// bottom-up against sp's database and indexes, and whenever an observed
// intermediate's q-error exceeds the threshold, re-enter plan enumeration
// over the whole query with the observation pinned. A replan plans in a
// copy of sp whose provider propagates the observations over sp.Cards, so
// sp itself is never written. ctx carries an optional trace (each probe and each
// replan decision records a span, so /v1/traces shows *why* an adaptive
// execution replanned) and bounds execution: a cancelled or
// deadline-exceeded ctx aborts the current probe or final execution at the
// next block boundary with ctx's error.
func Run(ctx context.Context, sp *enum.Space, cfg Config) (Result, error) {
	threshold := cfg.QErrThreshold
	if threshold <= 0 {
		threshold = DefaultQErrThreshold
	}
	maxReplans := cfg.MaxReplans
	if maxReplans <= 0 {
		maxReplans = DefaultMaxReplans
	}

	g, db, idx := sp.G, sp.DB, sp.Indexes
	overrides := make(map[query.BitSet]float64)
	ecfg := engine.Config{Rehash: cfg.Rehash, WorkLimit: cfg.WorkLimit, Ctx: ctx}

	var res Result
	cur, err := optimizer.Optimize(sp, cfg.Algorithm, cfg.Seed)
	if err != nil {
		return res, fmt.Errorf("reopt: initial plan: %w", err)
	}

	type probeRec struct {
		work    int64 // full subtree work as executed
		incr    int64 // incremental charge after reusing materialized children
		sig     string
		aborted bool
	}
	probes := make(map[query.BitSet]probeRec)
	// charged accumulates the incremental probe charges: firstUnprobed
	// works post-order, so when a node is probed its join children are
	// already materialized and a materializing executor only pays the
	// node's own work on top of them.
	var charged int64
	// reusableCost prices the maximal materialized subtrees of a plan under
	// the given provider, in the same cost-model units as the plan's total:
	// work the executor skips by reusing intermediates instead of
	// recomputing them. Pricing both sides of the replan gate net of reuse
	// is what makes invalidation a first-class cost — a candidate that
	// abandons every materialized intermediate must predict enough of a win
	// to pay for rebuilding from scratch.
	reusableCost := func(root *plan.Node, inj cardest.Provider) float64 {
		total := 0.0
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if n == nil || n.IsLeaf() {
				return
			}
			if n != root {
				if rec, ok := probes[n.S]; ok && !rec.aborted {
					total += plan.Cost(n, g, db, inj, sp.Model)
					return
				}
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(root)
		return total
	}
	for {
		node := firstUnprobed(cur, DefaultMaxProbeRels, func(s query.BitSet) bool { _, ok := probes[s]; return ok })
		if node == nil {
			break
		}
		// A probe gets its own work budget scaled off the subtree's expected
		// work; overrunning it is itself the observation.
		expected := expectedWork(node, g, db)
		budget := probeOverrunFactor * expected
		if budget < probeBudgetFloor {
			budget = probeBudgetFloor
		}
		pcfg := ecfg
		if pcfg.WorkLimit == 0 || budget < pcfg.WorkLimit {
			pcfg.WorkLimit = budget
		}
		probeSpan := trace.StartSpan(ctx, "reopt.probe")
		pr, perr := engine.Run(db, idx, g, node, pcfg)
		probeSpan.End(trace.Int64("rels", int64(node.S.Count())),
			trace.Int64("work", pr.Work), trace.Int64("rows", pr.Rows),
			trace.Bool("aborted", perr != nil))
		res.ProbeWork += pr.Work
		incr := pr.Work
		for _, child := range []*plan.Node{node.Left, node.Right} {
			if child == nil || child.IsLeaf() {
				continue
			}
			// A materialized intermediate is the same multiset of rows
			// whatever join order produced it, so reuse is keyed on the
			// relation set alone.
			if rec, ok := probes[child.S]; ok && !rec.aborted {
				incr -= rec.work
			}
		}
		if incr < 0 {
			incr = 0
		}
		charged += incr
		aborted := false
		if perr != nil {
			if !errors.Is(perr, engine.ErrWorkLimit) {
				return res, perr
			}
			if cfg.WorkLimit > 0 && (pr.Work >= cfg.WorkLimit || charged >= cfg.WorkLimit) {
				// The overall limit is gone: the query is out of time
				// whatever we replan to. Charge everything spent.
				res.TimedOut = true
				res.Work = charged
				res.Plan = cur
				return res, nil
			}
			aborted = true
		}
		est := math.Max(1, node.ECard)
		var obs float64
		if aborted {
			// No materialized intermediate, only a lower bound: the subtree
			// produced at least overrun-factor times its expected work, so
			// pin the estimate scaled by the observed overrun and let the
			// replan gate decide.
			f := float64(pr.Work) / math.Max(1, float64(expected))
			if f <= threshold {
				f = threshold + 1
			}
			obs = est * f
		} else {
			obs = float64(pr.Rows)
		}
		q := metrics.QError(est, obs)
		step := Step{S: node.S, Estimate: node.ECard, Observed: obs, QError: q, Aborted: aborted}
		overrides[node.S] = obs
		// An aborted probe materialized nothing: it stays recorded so the
		// loop does not retry it, but is never reused or refunded.
		probes[node.S] = probeRec{work: pr.Work, incr: incr, sig: signature(node), aborted: aborted}
		if q > threshold && res.Replans < maxReplans {
			replanSpan := trace.StartSpan(ctx, "reopt.replan")
			inj := NewPropagator(sp.Cards, overrides)
			replan := *sp
			replan.Cards = inj
			cand, err := optimizer.Optimize(&replan, cfg.Algorithm, cfg.Seed)
			if err != nil {
				return res, fmt.Errorf("reopt: replan %d: %w", res.Replans+1, err)
			}
			// Price both plans under the same feedback-corrected estimates,
			// net of the materialized intermediates each can reuse, and
			// switch only on a clear predicted win.
			curCost := plan.Cost(cur, g, db, inj, sp.Model) - reusableCost(cur, inj)
			candCost := cand.ECost - reusableCost(cand, inj)
			step.PredictedGain = candCost / math.Max(1, curCost)
			if candCost < replanMargin*curCost {
				res.Replans++
				step.Replanned = true
				cur = cand
			}
			replanSpan.End(trace.Int64("qerr", int64(q)),
				trace.Bool("replanned", step.Replanned))
		}
		res.Steps = append(res.Steps, step)
	}

	final, ferr := engine.Run(db, idx, g, cur, ecfg)
	res.FinalWork = final.Work
	res.Rows = final.Rows
	res.Plan = cur
	res.Work = charged + final.Work
	if ferr != nil {
		if errors.Is(ferr, engine.ErrWorkLimit) {
			res.TimedOut = true
			return res, nil
		}
		return res, ferr
	}
	// Refund the maximal final-plan subtrees whose relation set is
	// materialized: the executor reuses those intermediates instead of
	// recomputing them, which is work the final execution's total otherwise
	// includes. When the probe's structure matches, its recorded work IS
	// that recomputation cost; when a replan reshaped the subtree over the
	// same set, the recomputation cost is measured directly (the engine is
	// deterministic, so an uncharged re-run of the subtree reads off the
	// exact work the full execution spent there). In the no-replan case the
	// refunds cancel the charges and Work collapses to the static cost of
	// the same plan.
	var rerr error
	var refund func(n *plan.Node) int64
	refund = func(n *plan.Node) int64 {
		if n == nil || n.IsLeaf() || rerr != nil {
			return 0
		}
		if n != cur {
			if rec, ok := probes[n.S]; ok && !rec.aborted {
				if rec.sig == signature(n) {
					return rec.work
				}
				m, err := engine.Run(db, idx, g, n, engine.Config{Rehash: cfg.Rehash, Ctx: ctx})
				if err != nil {
					rerr = err
					return 0
				}
				return m.Work
			}
		}
		return refund(n.Left) + refund(n.Right)
	}
	res.Work = charged + final.Work - refund(cur)
	if rerr != nil {
		return res, fmt.Errorf("reopt: measuring reused subtree: %w", rerr)
	}
	if res.Work < 1 {
		res.Work = 1
	}
	return res, nil
}

// firstUnprobed returns the deepest, leftmost join subtree below the root
// that joins at most maxRels relations and has not been probed yet, or nil
// when every such prefix join has. Bottom-up probing of small prefixes is
// the point: two- and three-relation misestimates are cheap to observe and
// are exactly where the paper shows estimates start to degrade.
func firstUnprobed(root *plan.Node, maxRels int, probed func(query.BitSet) bool) *plan.Node {
	var found *plan.Node
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil || n.IsLeaf() || found != nil {
			return
		}
		walk(n.Left)
		walk(n.Right)
		if found == nil && n != root && n.S.Count() <= maxRels && !probed(n.S) {
			found = n
		}
	}
	walk(root)
	return found
}

// signature serializes a subtree's structure (algorithms and leaf order):
// two probes produce interchangeable intermediates exactly when their
// signatures and relation sets match.
func signature(n *plan.Node) string {
	var b strings.Builder
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.IsLeaf() {
			fmt.Fprintf(&b, "L%d", n.Rel)
			return
		}
		fmt.Fprintf(&b, "(%d ", int(n.Algo))
		walk(n.Left)
		b.WriteByte(' ')
		walk(n.Right)
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}

// expectedWork estimates a subtree's execution work from its planned
// cardinalities, mirroring the engine's metering: a leaf scan charges one
// unit per base tuple plus one per emitted tuple, and each join roughly
// one per output tuple on top of the inputs it consumes.
func expectedWork(n *plan.Node, g *query.Graph, db *storage.Database) int64 {
	if n == nil {
		return 0
	}
	w := int64(math.Max(1, n.ECard))
	if n.IsLeaf() {
		if t := db.Table(g.Q.Rels[n.Rel].Table); t != nil {
			w += int64(t.NumRows())
		}
		return w
	}
	return w + expectedWork(n.Left, g, db) + expectedWork(n.Right, g, db)
}
