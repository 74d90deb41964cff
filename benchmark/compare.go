package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounts are the per-layer metrics that are counts made by the program
// and must repeat bit for bit between two runs of the same commit.
var exactCounts = []string{"cardest.calls", "costmodel.calls", "engine.work_units", "engine.rows", "truecard.subgraphs"}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// comparison is one row of the report: a metric on a workload, both sides.
type comparison struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	wins, losses, pairs  int
	verdict              verdict
	ratio                float64 // change median / parent median
}

// judge applies the guide's rule to paired values of one metric.
//
//   - unresolved: the parent's own runs spread (inter-quartile, as a share of
//     their median) wider than the bound, so the bound cannot be tested.
//     Never reported as same.
//   - worse: the change's median is worse than the parent's by more than the
//     bound.
//   - better: at least ten pairs, the change wins at least nine tenths of all
//     pairs (ties count for neither side), and the medians differ by more
//     than the parent's inter-quartile spread.
//   - same: none of the above.
func judge(parent, change []float64, m specMetric) comparison {
	n := min(len(parent), len(change)) // values pair up by position
	parent, change = parent[:n], change[:n]
	c := comparison{pairs: n}
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	if c.parentMed != 0 {
		c.ratio = c.changeMed / c.parentMed
	}
	lower := m.Better == "lower"
	for i := range n {
		switch a, b := parent[i], change[i]; {
		case a == b:
		case (b < a) == lower:
			c.wins++
		default:
			c.losses++
		}
	}
	iqr := c.parentQ3 - c.parentQ1
	worsening := c.changeMed - c.parentMed
	if !lower {
		worsening = -worsening
	}
	switch {
	case n == 0 || c.parentMed == 0:
		c.verdict = unresolved
	case iqr/c.parentMed > m.Bound:
		c.verdict = unresolved
	case worsening/c.parentMed > m.Bound:
		c.verdict = worse
	case n >= 10 && float64(c.wins) >= 0.9*float64(n) && -worsening > iqr:
		c.verdict = better
	default:
		c.verdict = same
	}
	return c
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles pairs the runs of result files given as parent, change,
// parent, change, ... and prints, per workload and end-to-end metric, each
// side's median and quartiles, the ratio with its base, and the verdict. It
// fails when any metric is worse.
func compareFiles(w io.Writer, spec *specFile, paths []string) error {
	if len(paths) < 2 || len(paths)%2 != 0 {
		return fmt.Errorf("-compare takes result files in pairs: parent change [parent change ...]")
	}
	var sides [2][]runResult
	for i, p := range paths {
		f, err := readResults(p)
		if err != nil {
			return err
		}
		sides[i%2] = append(sides[i%2], f.Runs...)
	}
	values := func(runs []runResult, workload, metric string, trace bool) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}

	counts := map[verdict]int{}
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range spec.EndToEnd {
			c := judge(values(sides[0], wl.Name, m.Name, false), values(sides[1], wl.Name, m.Name, false), m)
			counts[c.verdict]++
			fmt.Fprintf(w, "  %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change/parent %.4f of %.6g %s  pairs %d (change wins %d, loses %d)  bound %g  %s\n",
				m.Name, c.parentMed, c.parentQ1, c.parentQ3, c.changeMed, c.changeQ1, c.changeQ3,
				c.ratio, c.parentMed, m.Unit, c.pairs, c.wins, c.losses, m.Bound, c.verdict)
		}
		for _, name := range exactCounts {
			all := append(values(sides[0], wl.Name, name, true), values(sides[1], wl.Name, name, true)...)
			if len(all) < 2 || all[0] == 0 {
				continue
			}
			state := "identical"
			for _, v := range all {
				if v != all[0] {
					state = "DIFFERS"
					counts[worse]++
				}
			}
			fmt.Fprintf(w, "  %-20s %.0f in %d traced runs: %s\n", name, all[0], len(all), state)
		}
	}
	fmt.Fprintf(w, "verdicts: %d better, %d same, %d worse, %d unresolved\n",
		counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return fmt.Errorf("%d comparisons are worse", counts[worse])
	}
	return nil
}
