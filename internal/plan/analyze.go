package plan

import (
	"fmt"
	"strings"
	"time"

	"jobench/internal/metrics"
	"jobench/internal/query"
)

// NodeStats holds the per-operator actuals the engine collects during an
// instrumented execution, indexed by preorder node id (see NodeID).
// RowsOut is the operator's output cardinality, Blocks the number of
// work-settlement blocks it processed, WorkUnits the deterministic work
// charged at this node, and WallNanos the inclusive wall-clock time of
// the subtree rooted here.
type NodeStats struct {
	RowsOut   int64
	Blocks    int64
	WorkUnits int64
	WallNanos int64
}

// NumNodes returns the number of operators in the tree: callers size a
// []NodeStats slice with it before an instrumented execution.
func NumNodes(n *Node) int {
	if n == nil {
		return 0
	}
	// Binary join trees over k relations always have 2k-1 nodes.
	return 2*n.S.Count() - 1
}

// NodeID arithmetic: plans are shared across concurrent executions, so
// nodes carry no mutable id field. Ids are preorder positions derived on
// the fly — the root is 0, a node's left child is id+1, and its right
// child is id + 2*|left subtree relations| (a binary tree over k
// relations has 2k-1 nodes). The engine and the renderers below compute
// the same numbering independently.

// LeftChildID returns the preorder id of n's left child given n's id.
func LeftChildID(id int) int { return id + 1 }

// RightChildID returns the preorder id of n's right child given n's id.
func (n *Node) RightChildID(id int) int { return id + 2*n.Left.S.Count() }

// AnalyzedNode pairs one operator with its planning-time estimate and
// its executed actuals, in preorder (ID is both the slice position and
// the NodeStats index).
type AnalyzedNode struct {
	ID    int
	Depth int
	// Set is the relation set this operator's subtree joins.
	Set query.BitSet
	// Op is the operator label: "Scan <table> <alias>" or the join
	// algorithm name.
	Op string
	// Cond renders the scan selection or the join predicates.
	Cond string
	// Probed marks the right leaf of an IndexNLJoin: it is never scanned,
	// its rows are fetched by the parent's index probes, so it has no
	// actual rows and no q-error (both stay zero).
	Probed     bool
	EstRows    float64
	ActualRows int64
	QError     float64
	WorkUnits  int64
	Blocks     int64
	WallNanos  int64
}

// Analyze flattens the plan into preorder AnalyzedNodes, joining each
// operator with its stats (stats may be shorter or nil: missing entries
// yield zero actuals — the node never ran, e.g. past a work-limit abort).
func Analyze(n *Node, g *query.Graph, stats []NodeStats) []AnalyzedNode {
	out := make([]AnalyzedNode, 0, NumNodes(n))
	analyze(&out, n, g, stats, 0, 0, false)
	return out
}

func analyze(out *[]AnalyzedNode, n *Node, g *query.Graph, stats []NodeStats, id, depth int, probed bool) {
	an := AnalyzedNode{ID: id, Depth: depth, Set: n.S, EstRows: n.ECard, Probed: probed}
	if id < len(stats) {
		st := stats[id]
		an.ActualRows = st.RowsOut
		an.Blocks = st.Blocks
		an.WorkUnits = st.WorkUnits
		an.WallNanos = st.WallNanos
	}
	if !probed {
		an.QError = metrics.QError(n.ECard, float64(an.ActualRows))
	}
	an.Cond = string(appendCond(nil, n, g))
	if n.IsLeaf() {
		rel := g.Q.Rels[n.Rel]
		an.Op = "Scan " + rel.Table + " " + rel.Alias
		*out = append(*out, an)
		return
	}
	an.Op = n.Algo.String()
	*out = append(*out, an)
	analyze(out, n.Left, g, stats, LeftChildID(id), depth+1, false)
	analyze(out, n.Right, g, stats, n.RightChildID(id), depth+1, n.Algo == IndexNLJoin)
}

// ExplainAnalyze renders the plan as an indented tree with estimated vs
// actual rows, per-node q-error, work units, and wall time — the
// EXPLAIN ANALYZE view of the paper's estimated-vs-true comparison.
func ExplainAnalyze(n *Node, g *query.Graph, stats []NodeStats) string {
	var b strings.Builder
	for _, an := range Analyze(n, g, stats) {
		indent := strings.Repeat("  ", an.Depth)
		fmt.Fprintf(&b, "%s%s", indent, an.Op)
		if an.Cond != "" {
			fmt.Fprintf(&b, " [%s]", an.Cond)
		}
		actual := fmt.Sprintf("actual %d rows, q-err %s", an.ActualRows, fmtQErr(an.QError))
		if an.Probed {
			actual = "index-probed"
		}
		fmt.Fprintf(&b, "  (est %.0f rows, %s, work %d, %.2fms)\n",
			an.EstRows, actual, an.WorkUnits, float64(an.WallNanos)/float64(time.Millisecond))
	}
	return b.String()
}

func fmtQErr(q float64) string {
	if q >= 100 {
		return fmt.Sprintf("%.0f", q)
	}
	return fmt.Sprintf("%.1f", q)
}
