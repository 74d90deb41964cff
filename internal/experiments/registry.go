package experiments

import (
	"context"
	"fmt"
	"strings"
)

// This file is the shared experiment registry: the single mapping from an
// experiment name ("table1", "fig3", ...) to its driver and rendering.
// Both cmd/jobench and the service layer resolve names here, which is what
// makes `jobench experiment -name table1` and GET /v1/experiment/table1
// byte-identical by construction — there is exactly one code path that
// renders each report.

// Renderer is the common surface of every experiment result.
type Renderer interface{ Render() string }

// Params carries the per-request knobs an experiment accepts beyond the
// lab's own configuration.
type Params struct {
	// Samples is fig9's random-plans-per-query count; <= 0 means the
	// driver default (DefaultSamples).
	Samples int
}

// Experiment is one named, runnable experiment.
type Experiment struct {
	Name string
	Run  func(ctx context.Context, l *Lab, p Params) (Renderer, error)
}

// Registry returns every experiment in the CLI's presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Table1(ctx) }},
		{"fig3", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Figure3(ctx) }},
		{"fig4", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Figure4(ctx) }},
		{"fig5", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Figure5(ctx) }},
		{"sec41", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Section41(ctx) }},
		{"fig6", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Figure6(ctx) }},
		{"fig7", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) {
			r, err := l.Figure7(ctx)
			if err != nil {
				return nil, err
			}
			return figure7Report(r), nil
		}},
		{"fig8", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Figure8(ctx) }},
		{"fig9", func(ctx context.Context, l *Lab, p Params) (Renderer, error) { return l.Figure9(ctx, p.Samples) }},
		{"table2", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Table2(ctx) }},
		{"table3", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Table3(ctx) }},
		{"ablation-damping", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) {
			return l.DampingAblation(ctx, nil)
		}},
		{"ablation-rehash", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) {
			return l.RehashAblation(ctx, "17e", nil)
		}},
		{"hedging", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Hedging(ctx) }},
		{"reopt", func(ctx context.Context, l *Lab, _ Params) (Renderer, error) { return l.Reopt(ctx) }},
	}
}

// Names lists the registered experiment names in presentation order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.Name
	}
	return out
}

// RunExperiment resolves name in the registry, runs it under ctx, and
// returns the rendered report.
func RunExperiment(ctx context.Context, l *Lab, name string, p Params) (string, error) {
	for _, e := range Registry() {
		if e.Name == name {
			r, err := e.Run(ctx, l, p)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q (%s)", name, strings.Join(Names(), "|"))
}

// figure7Report is the fig7 report: Figure 7 reuses Figure 6's result
// type, so swap the heading.
func figure7Report(r *Figure6Result) Renderer {
	return retitled{"Figure 7: PK vs PK+FK indexes (PostgreSQL estimates)\n", r}
}

// retitled swaps the heading of a reused result type.
type retitled struct {
	prefix string
	inner  Renderer
}

func (w retitled) Render() string {
	s := w.inner.Render()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return w.prefix + s[i+1:]
	}
	return w.prefix + s
}
