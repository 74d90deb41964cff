package serving

import (
	"fmt"
	"net/http"
	"strings"
)

// Exposition builds a /metrics body in the Prometheus text format: a HELP
// and TYPE header per metric, then its samples. The container bakes in no
// Prometheus client, and the counters the serving tier exports need no
// more than this.
type Exposition struct {
	b    strings.Builder
	name string
}

// Metric starts a metric with its HELP and TYPE lines; the samples that
// follow belong to it. A name ending in _total is a counter, any other a
// gauge.
func (e *Exposition) Metric(name, help string) {
	kind := "gauge"
	if strings.HasSuffix(name, "_total") {
		kind = "counter"
	}
	e.name = name
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Sample writes one sample of the current metric; labels alternate label
// names and values. A bool renders as 1 or 0.
func (e *Exposition) Sample(v any, labels ...string) {
	if b, ok := v.(bool); ok {
		v = 0
		if b {
			v = 1
		}
	}
	e.b.WriteString(e.name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&e.b, "%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if len(labels) > 0 {
		e.b.WriteByte('}')
	}
	fmt.Fprintf(&e.b, " %v\n", v)
}

// Scalar writes a metric with its one unlabelled sample.
func (e *Exposition) Scalar(name, help string, v any) {
	e.Metric(name, help)
	e.Sample(v)
}

// Serve writes the exposition as the response body.
func (e *Exposition) Serve(w http.ResponseWriter) (int, error) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(e.b.String()))
	return http.StatusOK, nil
}
