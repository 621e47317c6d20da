package sim

import (
	"testing"

	"ramp/internal/config"
	"ramp/internal/trace"
)

// TestResetBitIdenticalAcrossProfiles drives one pooled core through all
// nine workload profiles via Reset and checks every epoch Result against
// a fresh core: reuse must be observationally indistinguishable from
// construction (this is the contract the exp arena relies on).
func TestResetBitIdenticalAcrossProfiles(t *testing.T) {
	reused := mustNew(config.Base(), newScript([]trace.Instr{{Op: trace.IntAlu}}))
	reused.Run(5_000) // dirty every structure before the first Reset
	for _, app := range trace.Apps() {
		fresh := mustNew(config.Base(), mustNewGenerator(t, app, 7))
		fresh.Run(20_000)
		var want [3]Result
		for i := range want {
			want[i] = fresh.Run(30_000)
		}

		if err := reused.Reset(config.Base(), mustNewGenerator(t, app, 7)); err != nil {
			t.Fatalf("%s: Reset: %v", app.Name, err)
		}
		reused.Run(20_000)
		for i := range want {
			if got := reused.Run(30_000); got != want[i] {
				t.Fatalf("%s epoch %d: reused core diverged from fresh:\n got %+v\nwant %+v",
					app.Name, i, got, want[i])
			}
		}
	}
}

// TestResetBitIdenticalAcrossConfigs resets one core across every
// microarchitectural configuration of the adaptation space — different
// window sizes, issue widths and cache geometries — and checks each run
// against a fresh core, covering the buffer-resize paths of Reset.
func TestResetBitIdenticalAcrossConfigs(t *testing.T) {
	app := trace.Gzip()
	reused := mustNew(config.Base(), mustNewGenerator(t, app, 3))
	reused.Run(5_000)
	for _, proc := range config.ArchConfigs() {
		fresh := mustNew(proc, mustNewGenerator(t, app, 3))
		fresh.Run(10_000)
		want := fresh.Run(20_000)

		if err := reused.Reset(proc, mustNewGenerator(t, app, 3)); err != nil {
			t.Fatalf("%s: Reset: %v", proc.Name, err)
		}
		reused.Run(10_000)
		if got := reused.Run(20_000); got != want {
			t.Fatalf("%s: reused core diverged from fresh:\n got %+v\nwant %+v",
				proc.Name, got, want)
		}
	}
}

// TestResetRejectsInvalidConfig checks that Reset validates like New and
// leaves no half-reset state behind on error paths callers might retry.
func TestResetRejectsInvalidConfig(t *testing.T) {
	c := mustNew(config.Base(), newScript([]trace.Instr{{Op: trace.IntAlu}}))
	bad := config.Base()
	bad.WindowSize = 0
	if err := c.Reset(bad, newScript([]trace.Instr{{Op: trace.IntAlu}})); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
}

// TestCoreRunSteadyStateZeroAlloc is the allocation budget for the inner
// simulation loop: once warmed, Run must not allocate at all. This holds
// the line on the fetch-path escape the ring-buffer fetch queue removed.
func TestCoreRunSteadyStateZeroAlloc(t *testing.T) {
	g := mustNewGenerator(t, trace.Gzip(), 1)
	c := mustNew(config.Base(), g)
	c.Run(50_000) // warm caches, predictor, MSHR backing arrays
	if allocs := testing.AllocsPerRun(5, func() { c.Run(10_000) }); allocs != 0 {
		t.Fatalf("steady-state Run allocated %.0f objects/op, want 0", allocs)
	}
}

// TestCoreResetZeroAlloc is the allocation budget for core reuse: a
// same-shape Reset must reuse every buffer.
func TestCoreResetZeroAlloc(t *testing.T) {
	g := mustNewGenerator(t, trace.Gzip(), 1)
	c := mustNew(config.Base(), g)
	c.Run(10_000)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := c.Reset(config.Base(), g); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("same-shape Reset allocated %.0f objects/op, want 0", allocs)
	}
}
