// Command jsoncheck asserts that stdin is a JSON object containing the
// given keys. It exists so the service smoke and chaos-fleet runs in the
// Makefile and CI can validate responses and artifacts without depending
// on jq being installed.
//
// Each argument is either key=value (the key must be present and its
// value, rendered with fmt.Sprint, must equal the string), key<=value /
// key>=value (the key must be a number satisfying the comparison — how
// chaos runs assert "error_rate<=0.2" or "deadline_overruns<=0"), or a
// bare key (the key must merely be present). Keys may be dotted paths
// traversing nested objects; an all-digit path part indexes a JSON array
// ("nodes.0.actual_rows" is the first node's actual_rows).
//
// Usage:
//
//	curl -fsS http://localhost:8080/healthz | jsoncheck status=ok
//	jsoncheck schema=jobench-loadgen/v1 total.requests classes.optimize.latency_ms.p50 < BENCH_chaos.json
//	jsoncheck 'total.error_rate<=0.25' 'total.deadline_overruns<=0' 'total.requests>=10' < BENCH_chaos.json
//	curl -fsS -d '{"query":"1a"}' http://localhost:8080/v1/explain | jsoncheck nodes.0.actual_rows
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		fatal("reading stdin: %v", err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		fatal("invalid JSON: %v\ninput: %s", err, data)
	}
	for _, arg := range os.Args[1:] {
		if err := check(obj, arg); err != nil {
			fatal("%v\ninput: %s", err, data)
		}
	}
}

// check evaluates one assertion argument against the decoded object.
func check(obj map[string]any, arg string) error {
	// The two-rune operators embed "="; match them before the plain cut.
	for _, op := range []string{"<=", ">="} {
		path, want, ok := strings.Cut(arg, op)
		if !ok {
			continue
		}
		got, err := lookup(obj, path)
		if err != nil {
			return err
		}
		gotN, ok := got.(float64) // encoding/json decodes every number this way
		if !ok {
			return fmt.Errorf("key %q = %v (%T), not a number to compare with %q", path, got, got, op)
		}
		wantN, err := strconv.ParseFloat(want, 64)
		if err != nil {
			return fmt.Errorf("assertion %q: %q is not a number", arg, want)
		}
		if (op == "<=" && gotN > wantN) || (op == ">=" && gotN < wantN) {
			return fmt.Errorf("key %q = %v, want %s %v", path, gotN, op, wantN)
		}
		return nil
	}
	path, want, hasWant := strings.Cut(arg, "=")
	got, err := lookup(obj, path)
	if err != nil {
		return err
	}
	if hasWant && fmt.Sprint(got) != want {
		return fmt.Errorf("key %q = %v, want %q", path, got, want)
	}
	return nil
}

// lookup resolves a dotted path through nested JSON objects and arrays:
// an all-digit part indexes an array, anything else keys an object.
func lookup(obj map[string]any, path string) (any, error) {
	parts := strings.Split(path, ".")
	var cur any = obj
	for i, part := range parts {
		switch v := cur.(type) {
		case map[string]any:
			var ok bool
			cur, ok = v[part]
			if !ok {
				return nil, fmt.Errorf("key %q missing (at %q)", path, part)
			}
		case []any:
			idx, err := strconv.Atoi(part)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("key %q: %q is an array, %q is not an index", path, strings.Join(parts[:i], "."), part)
			}
			if idx >= len(v) {
				return nil, fmt.Errorf("key %q: index %d out of range (array has %d elements)", path, idx, len(v))
			}
			cur = v[idx]
		default:
			return nil, fmt.Errorf("key %q: %q is not an object or array", path, strings.Join(parts[:i], "."))
		}
	}
	return cur, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jsoncheck: "+format+"\n", args...)
	os.Exit(1)
}
