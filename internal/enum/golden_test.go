package enum

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/truecard"
)

// -update regenerates the golden plan table from the current DP. Only do
// this deliberately: the table pins the exact plan every experiment runs.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_plans.tsv from the current DP")

const goldenPlansPath = "testdata/golden_plans.tsv"

// compactPlan renders a plan on one line: the join algorithm with its
// children in order, and aliases at the leaves.
func compactPlan(n *plan.Node, g *query.Graph) string {
	if n.IsLeaf() {
		return g.Q.Rels[n.Rel].Alias
	}
	return n.Algo.String() + "(" + compactPlan(n.Left, g) + "," + compactPlan(n.Right, g) + ")"
}

// TestGoldenPlans pins DP's bushy plan and its exact estimated cost for
// every JOB query under PostgreSQL estimates and true cardinalities, with
// PK and PK+FK indexes, against a checked-in table. Every figure of §4-§6
// executes or re-costs these plans, so an enumeration change that picks a
// different plan, even one of equal cost, shows up here. The true-cardinality
// rows need the truecard DP of every query and are skipped under -short.
func TestGoldenPlans(t *testing.T) {
	l := lab(t)
	type provider struct {
		name  string
		cards func(g *query.Graph) cardest.Provider
	}
	providers := []provider{{"postgres", l.pg.ForQuery}}
	if !testing.Short() || *updateGolden {
		providers = append(providers, provider{"true", func(g *query.Graph) cardest.Provider {
			st, err := truecard.Compute(l.db, g, truecard.Options{})
			if err != nil {
				t.Fatalf("%s: truecard: %v", g.Q.ID, err)
			}
			return cardest.True{Store: st}
		}})
	}
	designs := []struct {
		name string
		idx  *index.Set
	}{{"PK", l.pk}, {"PKFK", l.pkfk}}

	var keys []string
	got := map[string]string{}
	for _, q := range job.Workload() {
		g := query.MustBuildGraph(q)
		for _, p := range providers {
			cards := p.cards(g)
			for _, d := range designs {
				root, err := DP(&Space{
					G: g, DB: l.db, Cards: cards, Model: costmodel.NewSimple(),
					Indexes: d.idx, DisableNLJ: true, Shape: plan.Bushy,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", q.ID, p.name, d.name, err)
				}
				key := q.ID + "\t" + p.name + "\t" + d.name
				keys = append(keys, key)
				got[key] = compactPlan(root, g) + "\t" + strconv.FormatFloat(root.ECost, 'g', -1, 64)
			}
		}
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# query\tcards\tindexes\tplan\tcost\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\t%s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPlansPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlansPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d plans", goldenPlansPath, len(keys))
		return
	}

	f, err := os.Open(goldenPlansPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			t.Fatalf("bad golden line %q", line)
		}
		want[strings.Join(fields[:3], "\t")] = strings.Join(fields[3:], "\t")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("golden table has %d plans, this run computed %d", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%q: missing from golden table (run with -update)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%q:\n got  %s\n want %s", k, got[k], w)
		}
	}
}
