package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// expectedSums are one pass's reference answers added up: every later
// commit must reproduce them exactly, because no optimization may change
// what a query returns, what it costs in work units or which plan it gets.
type expectedSums struct {
	Ops       int     `json:"ops"`
	Rows      int64   `json:"rows"`
	Work      int64   `json:"work"`
	Subgraphs int64   `json:"subgraphs"`
	Cost      float64 `json:"cost"`
	Card      float64 `json:"card"`
	Plans     uint64  `json:"plans_sum"` // wrapping sum of the ops' EXPLAIN-text hashes
}

// expectedFile is benchmark/expected/seed42.json. Worlds are always
// generated from worldSeed, so its values hold at every -seed.
type expectedFile struct {
	Workloads map[string]expectedSums `json:"workloads"`
	// Reports maps a paper report to the SHA-256 of its rendering on the
	// truth.cold world.
	Reports map[string]string `json:"reports"`
}

func expectedPath(benchDir string) string { return filepath.Join(benchDir, "expected", "seed42.json") }

func loadExpected(benchDir string) (*expectedFile, error) {
	data, err := os.ReadFile(expectedPath(benchDir))
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.Workloads == nil {
		e.Workloads = make(map[string]expectedSums)
	}
	return &e, nil
}

func (e *expectedFile) save(benchDir string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(benchDir), append(data, '\n'), 0o644)
}
