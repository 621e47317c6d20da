package exp

import (
	"context"

	"ramp/internal/core"
	"ramp/internal/trace"
)

// EvaluateSuiteCtx evaluates the full nine-application suite on the
// base processor at one qualification point, returning results in the
// paper's suite order (trace.Apps). The manycore scheduler consumes
// these per-application epoch rows as its workload profiles; everything
// comes out of the evaluation cache, so a policy sweep over many die
// sizes simulates each application exactly once. The evaluations run on
// EvaluateAllCtx's bounded worker pool.
func (e *Env) EvaluateSuiteCtx(ctx context.Context, qual core.Qualification) ([]Result, error) {
	apps := trace.Apps()
	jobs := make([]EvalJob, len(apps))
	for i, app := range apps {
		jobs[i] = EvalJob{App: app, Proc: e.Base, Qual: qual}
	}
	return e.EvaluateAllCtx(ctx, jobs)
}
