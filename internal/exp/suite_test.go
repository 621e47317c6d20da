package exp

import (
	"context"
	"testing"

	"ramp/internal/trace"
)

// TestEvaluateSuite checks EvaluateSuiteCtx: nine results in paper
// order, each matching a direct Evaluate of the same application (the
// cache guarantees one simulation per app either way).
func TestEvaluateSuite(t *testing.T) {
	env := NewEnv(QuickOptions())
	qual := env.Qualification(400)
	results, err := env.EvaluateSuiteCtx(context.Background(), qual)
	if err != nil {
		t.Fatal(err)
	}
	apps := trace.Apps()
	if len(results) != len(apps) {
		t.Fatalf("suite returned %d results, want %d", len(results), len(apps))
	}
	for i, app := range apps {
		if results[i].App != app.Name {
			t.Fatalf("result %d is %s, want %s", i, results[i].App, app.Name)
		}
		direct, err := env.Evaluate(app, env.Base, qual)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].FIT() != direct.FIT() || results[i].IPC != direct.IPC {
			t.Fatalf("%s: suite result differs from direct Evaluate", app.Name)
		}
	}
	if got := env.CachedEvaluations(); got != len(apps) {
		t.Fatalf("suite simulated %d points, want %d", got, len(apps))
	}
}
