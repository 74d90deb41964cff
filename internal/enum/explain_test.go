package enum

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
)

// fmtExplain is plan.Explain as it was written with fmt, kept as the
// reference the append-based renderer must match byte for byte.
func fmtExplain(n *plan.Node, g *query.Graph) string {
	var b strings.Builder
	fmtExplainAt(&b, n, g, 0)
	return b.String()
}

func fmtExplainAt(b *strings.Builder, n *plan.Node, g *query.Graph, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		rel := g.Q.Rels[n.Rel]
		fmt.Fprintf(b, "%sScan %s %s", indent, rel.Table, rel.Alias)
		if len(rel.Preds) > 0 {
			preds := make([]string, len(rel.Preds))
			for i, p := range rel.Preds {
				preds[i] = fmtPred(p)
			}
			fmt.Fprintf(b, " [%s]", strings.Join(preds, " AND "))
		}
		fmt.Fprintf(b, "  (est %.0f rows)\n", n.ECard)
		return
	}
	conds := make([]string, 0, len(n.EdgeIdxs))
	for _, ei := range n.EdgeIdxs {
		for _, j := range g.Edges[ei].Preds {
			conds = append(conds, fmt.Sprintf("%s.%s=%s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol))
		}
	}
	fmt.Fprintf(b, "%s%s on %s  (est %.0f rows, cost %.1f)\n",
		indent, n.Algo, strings.Join(conds, " AND "), n.ECard, n.ECost)
	fmtExplainAt(b, n.Left, g, depth+1)
	fmtExplainAt(b, n.Right, g, depth+1)
}

// fmtPred is query.Pred.String as it was written with fmt.
func fmtPred(p *query.Pred) string {
	switch p.Kind {
	case query.PredEqInt:
		return fmt.Sprintf("%s = %d", p.Col, p.Val)
	case query.PredNeInt:
		return fmt.Sprintf("%s <> %d", p.Col, p.Val)
	case query.PredLtInt:
		return fmt.Sprintf("%s < %d", p.Col, p.Val)
	case query.PredLeInt:
		return fmt.Sprintf("%s <= %d", p.Col, p.Val)
	case query.PredGtInt:
		return fmt.Sprintf("%s > %d", p.Col, p.Val)
	case query.PredGeInt:
		return fmt.Sprintf("%s >= %d", p.Col, p.Val)
	case query.PredBetween:
		return fmt.Sprintf("%s BETWEEN %d AND %d", p.Col, p.Val, p.Val2)
	case query.PredInInt:
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(parts, ", "))
	case query.PredEqStr:
		return fmt.Sprintf("%s = '%s'", p.Col, p.Str)
	case query.PredNeStr:
		return fmt.Sprintf("%s <> '%s'", p.Col, p.Str)
	case query.PredInStr:
		return fmt.Sprintf("%s IN ('%s')", p.Col, strings.Join(p.Strs, "','"))
	case query.PredLike:
		return fmt.Sprintf("%s LIKE '%s'", p.Col, p.Str)
	case query.PredNotLike:
		return fmt.Sprintf("%s NOT LIKE '%s'", p.Col, p.Str)
	case query.PredIsNull:
		return fmt.Sprintf("%s IS NULL", p.Col)
	case query.PredNotNull:
		return fmt.Sprintf("%s IS NOT NULL", p.Col)
	case query.PredOr:
		parts := make([]string, len(p.Disj))
		for i, d := range p.Disj {
			parts[i] = fmtPred(d)
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	default:
		return fmt.Sprintf("pred(%d)", p.Kind)
	}
}

// TestExplainMatchesFmt renders DP's plan of every JOB query under the
// PostgreSQL and HyPer estimators with PK and PK+FK indexes, and checks
// that plan.Explain gives exactly fmtExplain's bytes (-short: every 10th
// query).
func TestExplainMatchesFmt(t *testing.T) {
	l := lab(t)
	ests := []cardest.Estimator{l.pg, cardest.NewSample(l.db, l.sdb)}
	for i, q := range job.Workload() {
		if testing.Short() && i%10 != 0 {
			continue
		}
		g := query.MustBuildGraph(q)
		for _, est := range ests {
			cards := est.ForQuery(g)
			for _, idx := range []*index.Set{l.pk, l.pkfk} {
				root, err := DP(&Space{G: g, DB: l.db, Cards: cards, Model: costmodel.NewSimple(), Indexes: idx, DisableNLJ: true})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := plan.Explain(root, g), fmtExplain(root, g); got != want {
					t.Fatalf("%s/%s: Explain\n%s\nwant\n%s", q.ID, est.Name(), got, want)
				}
			}
		}
	}
}

// TestExplainMatchesFmtOnEdgeValues checks the renderer where %.0f and
// %.1f are easiest to get wrong — signed zero, halves that round to even,
// values past the shortest-decimal range, infinities and NaN — on a query
// whose scans carry every predicate kind.
func TestExplainMatchesFmtOnEdgeValues(t *testing.T) {
	q := &query.Query{
		ID: "preds",
		Rels: []query.Rel{
			{Alias: "a", Table: "A", Preds: []*query.Pred{
				query.EqInt("x", -3), query.NeInt("x", 4), query.LtInt("x", 5), query.LeInt("x", 6),
				query.GtInt("x", 7), query.GeInt("x", 8), query.Between("x", 1, 9), query.InInt("x", 1, -2, 3),
			}},
			{Alias: "b", Table: "B", Preds: []*query.Pred{
				query.EqStr("s", "it's"), query.NeStr("s", ""), query.InStr("s", "p", "q"),
				query.Like("s", "%x%"), query.NotLike("s", "y%"), query.IsNull("s"), query.NotNull("s"),
				query.Or(query.EqInt("x", 1), query.Or(query.Like("s", "z"), query.IsNull("x"))),
				{Kind: query.PredOr + 1, Col: "s"},
			}},
			{Alias: "c", Table: "C"},
		},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"},
			{LeftAlias: "a", LeftCol: "k", RightAlias: "b", RightCol: "k"},
			{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "b_id"},
		},
	}
	g := query.MustBuildGraph(q)
	values := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 0.05, 0.25, 1e21, 123456789.45, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range values {
		for _, w := range values {
			ab := &plan.Node{S: 0b011, Rel: -1, Algo: plan.HashJoin, EdgeIdxs: []int{0}, ECard: v, ECost: w,
				Left: &plan.Node{S: 0b001, Rel: 0, ECard: w}, Right: &plan.Node{S: 0b010, Rel: 1, ECard: v}}
			root := &plan.Node{S: 0b111, Rel: -1, Algo: plan.IndexNLJoin, EdgeIdxs: []int{1}, ECard: w, ECost: v,
				Left: ab, Right: &plan.Node{S: 0b100, Rel: 2, ECard: v}}
			if got, want := plan.Explain(root, g), fmtExplain(root, g); got != want {
				t.Fatalf("ECard %v, ECost %v: Explain\n%s\nwant\n%s", v, w, got, want)
			}
		}
	}
}
