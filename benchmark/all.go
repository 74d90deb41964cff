package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment stamps a result file with what the numbers depend on besides
// the code.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	RunSeconds float64 `json:"run_seconds"`
}

// resultFile is benchmark/out/result.json, and what -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

// runAll runs every workload of BENCHMARK.json in a child process each —
// so peak_rss_mb is the workload's own and one workload's garbage is not
// another's noise — with the full correctness gate, and writes result.json.
// With cfg.trace each workload runs a second time, traced.
func runAll(spec *specFile, cfg runConfig, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Env: environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: headCommit(filepath.Dir(filepath.Dir(cfg.outDir))), Date: time.Now().UTC().Format(time.RFC3339),
		RunSeconds: cfg.seconds,
	}}
	traces := []int{0}
	if cfg.trace {
		traces = []int{0, 1}
	}
	failed := 0
	for r := range runs {
		for _, wl := range spec.Workloads {
			for _, trace := range traces {
				args := []string{
					"-workload", wl.Name, "-seed", strconv.FormatInt(cfg.seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-full",
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				res, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				res.Workload, res.Seed, res.Trace = wl.Name, cfg.seed+int64(r), trace == 1
				if !res.Correct {
					failed++
				}
				out.Runs = append(out.Runs, res)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", path, len(out.Runs))
	if failed > 0 {
		return fmt.Errorf("%d runs failed the correctness gate", failed)
	}
	return nil
}

// runChild runs one workload in a child process, passing its report through
// and parsing the JSON object on its last line. A child that fails the gate
// exits non-zero but still prints its result, which is returned.
func runChild(self string, args []string) (runResult, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return res, nil
}

// headCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository has none.
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return ref
}
