package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Value is one reported figure.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report collects what one run prints: readable metric lines, the
// figures of the final JSON line, request counts and failed checks.
type Report struct {
	w         io.Writer
	metrics   map[string]Value
	Attempted int
	Failed    int
	Checks    []string // failed output checks
}

func newReport(w io.Writer) *Report {
	return &Report{w: w, metrics: make(map[string]Value)}
}

// Printf writes one readable line.
func (r *Report) Printf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// Summary prints a metric's sample count, median and highest supported
// percentile under its readable name.
func (r *Report) Summary(name, unit string, s Summary) {
	r.Printf("metric %-28s unit=%-8s n=%-6d median=%-14.6g %s=%.6g", name, unit, s.N, s.Median, s.HiLabel, s.Hi)
}

// Scalar prints a metric that is one figure per run.
func (r *Report) Scalar(name, unit string, v float64) {
	r.Printf("metric %-28s unit=%-8s value=%.6g", name, unit, v)
}

// Value prints a metric that is one figure computed from n samples.
func (r *Report) Value(name, unit string, n int, v float64) {
	r.Printf("metric %-28s unit=%-8s n=%-6d value=%.6g", name, unit, n, v)
}

// Set records a figure for the final JSON line.
func (r *Report) Set(name, unit string, v float64) {
	r.metrics[name] = Value{Value: v, Unit: unit}
}

// Check records an output check; a false ok fails the run.
func (r *Report) Check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.Checks = append(r.Checks, msg)
		r.Printf("CHECK FAILED: %s", msg)
	}
}

// Correct reports whether every request succeeded and every check held.
func (r *Report) Correct() bool { return r.Failed == 0 && len(r.Checks) == 0 }

// Result is the final JSON line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Finish prints the final JSON line, keeping only the named metrics.
// A figure that is not finite (a failed request's latency) is written
// as the largest float, so the line still parses.
func (r *Report) Finish(names []string) error {
	res := Result{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]Value)}
	var missing []string
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			v.Value = math.MaxFloat64
		}
		res.Metrics[n] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.w, "%s\n", b)
	return err
}
