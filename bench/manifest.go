package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest is the root BENCHMARK.json: the one place that names the
// workloads, the metrics, their units and their regression bounds. The
// program reads it instead of repeating it, so the two cannot drift.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// benchDir locates the benchmark's own directory from the working directory:
// `go run -C bench .` and `go test` run inside it, a built binary may be
// started from the repository root.
func benchDir() (string, error) {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			return "bench", nil
		}
	}
	if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
		return ".", nil
	}
	return "", fmt.Errorf("bench: BENCHMARK.json not found; run from the repository root or from bench/")
}

func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) workloadNames() []string {
	out := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		out[i] = w.Name
	}
	return out
}

// decl finds a metric in either section.
func (m *manifest) decl(name string) (metricDecl, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range m.PerLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}
