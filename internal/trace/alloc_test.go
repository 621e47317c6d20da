package trace

import (
	"testing"
)

// TestResetMatchesFreshGenerator rebuilds one pooled generator in place
// for every profile — after it has generated from a *different* profile,
// the hardest reuse case — and checks the instruction stream against a
// fresh generator's. Reseeding plus the deterministic rebuild must
// restore the exact post-construction RNG state.
func TestResetMatchesFreshGenerator(t *testing.T) {
	apps := Apps()
	reused := mustNewGenerator(t, apps[len(apps)-1], 99)
	var scratch Instr
	for i := 0; i < 10_000; i++ { // advance deep into the stream
		reused.Next(&scratch)
	}
	for _, app := range apps {
		fresh := mustNewGenerator(t, app, 42)
		if err := reused.Reset(app, 42); err != nil {
			t.Fatalf("%s: Reset: %v", app.Name, err)
		}
		var want, got Instr
		for i := 0; i < 50_000; i++ {
			fresh.Next(&want)
			reused.Next(&got)
			if got != want {
				t.Fatalf("%s: instr %d diverged after Reset:\n got %+v\nwant %+v",
					app.Name, i, got, want)
			}
		}
	}
}

// TestGeneratorSteadyStateZeroAlloc is the allocation budget for
// generator reuse: once a generator has built a profile's phase state,
// re-Resetting to the same profile and generating must not allocate.
func TestGeneratorSteadyStateZeroAlloc(t *testing.T) {
	app := Gzip()
	g := mustNewGenerator(t, app, 1)
	if err := g.Reset(app, 1); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	var in Instr
	if allocs := testing.AllocsPerRun(5, func() {
		if err := g.Reset(app, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5_000; i++ {
			g.Next(&in)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Reset+Next allocated %.0f objects/op, want 0", allocs)
	}
}
