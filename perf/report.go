package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
)

// RunRecord is one ddperf invocation: where it ran and what each
// workload measured.
type RunRecord struct {
	Commit     string    `json:"commit"`
	Date       string    `json:"date"`
	Go         string    `json:"go"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Workloads  []*Result `json:"workloads"`
}

// File is a JSON file of runs; ddperf -out appends to it.
type File struct {
	Runs []RunRecord `json:"runs"`
}

// ReadFile reads a file of runs.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &f, nil
}

// AppendRun adds r to the runs in path, creating the file if needed.
func AppendRun(path string, r RunRecord) error {
	f, err := ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &File{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	return writeJSON(path, f)
}

// WriteSpans writes the traced spans of each workload.
func WriteSpans(path string, spans map[string][]Span) error {
	return writeJSON(path, map[string]any{"spans": spans})
}

// ReadSpans reads a file WriteSpans wrote.
func ReadSpans(path string) (map[string][]Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Spans map[string][]Span `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return f.Spans, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PrintLines prints one "<workload> <metric> <value> <unit>" line per
// end-to-end metric, failed_ratio, and each per-layer metric of a
// traced result.
func PrintLines(w io.Writer, res *Result) {
	defs := append(append([]MetricDef(nil), EndToEnd...), FailedRatio)
	if res.Layers != nil {
		defs = append(defs, PerLayer...)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			m = res.Layers[d.Name]
		}
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), d.Unit)
	}
}

// ContractLine renders the one-line JSON object that ends a -workload
// run: the end-to-end metrics, or the per-layer ones of a traced run.
func ContractLine(res *Result) ([]byte, error) {
	metrics := res.Layers
	if metrics == nil {
		metrics = map[string]Metric{}
		for _, d := range EndToEnd {
			metrics[d.Name] = res.Metrics[d.Name]
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}
