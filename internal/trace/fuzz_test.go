package trace_test

// Fuzz coverage for the synthetic trace generator: arbitrary (but
// Validate-accepted) profiles must yield well-formed instruction streams
// — valid op codes, addresses only on memory ops, targets on control
// ops — must be deterministic per (profile, seed), and must drive the
// timing simulator to a finite, positive, bounded IPC. The CI fuzz lane
// runs this for a few seconds on every push; longer local runs:
//
//	go test -fuzz FuzzTraceGenerator -fuzztime 60s ./internal/trace/
import (
	"math"
	"testing"

	"ramp/internal/config"
	"ramp/internal/sim"
	"ramp/internal/trace"
)

// fuzzProfile derives a syntactically valid profile from raw fuzz bytes.
// Mix weights are normalised so the fractions sum to 1; sizes are folded
// into ranges Validate accepts, so almost every input exercises the
// generator rather than the validator.
func fuzzProfile(wAlu, wMul, wDiv, wFP, wFPDiv, wLoad, wStore, wBranch uint8,
	depP, noDep, predictable, callFrac uint8,
	codeKB uint8, wsKB uint16, stride uint8, phaseLen uint16) (trace.Profile, bool) {

	total := float64(wAlu) + float64(wMul) + float64(wDiv) + float64(wFP) +
		float64(wFPDiv) + float64(wLoad) + float64(wStore) + float64(wBranch)
	if total == 0 {
		return trace.Profile{}, false
	}
	mix := trace.Mix{
		IntAlu: float64(wAlu) / total,
		IntMul: float64(wMul) / total,
		IntDiv: float64(wDiv) / total,
		FPOp:   float64(wFP) / total,
		FPDiv:  float64(wFPDiv) / total,
		Load:   float64(wLoad) / total,
		Store:  float64(wStore) / total,
		Branch: float64(wBranch) / total,
	}
	p := trace.Profile{
		Name:     "fuzz",
		Class:    "fuzz",
		PhaseLen: 1 + int(phaseLen),
		Phases: []trace.Phase{{
			Name:      "p0",
			Weight:    1,
			Mix:       mix,
			DepGeomP:  0.05 + 0.9*float64(depP)/255,
			NoDepFrac: float64(noDep) / 255,
			CodeBytes: 256 * (1 + uint64(codeKB)%64),
			Streams: []trace.Stream{{
				Kind:        trace.Strided,
				WorkingSet:  1024 * (1 + uint64(wsKB)%4096),
				StrideBytes: 8 * (1 + uint64(stride)%64),
				Weight:      1,
			}},
			PredictableFrac: float64(predictable) / 255,
			CallFrac:        float64(callFrac%64) / 255,
		}},
	}
	return p, true
}

func FuzzTraceGenerator(f *testing.F) {
	// Seeds: an even mix, a branch-heavy integer code, an FP stream code,
	// and a degenerate all-load profile.
	f.Add(uint8(40), uint8(2), uint8(1), uint8(10), uint8(1), uint8(25), uint8(10), uint8(11),
		uint8(128), uint8(80), uint8(200), uint8(10), uint8(16), uint16(64), uint8(8), uint16(10000), int64(1))
	f.Add(uint8(50), uint8(0), uint8(0), uint8(0), uint8(0), uint8(20), uint8(10), uint8(20),
		uint8(40), uint8(30), uint8(255), uint8(63), uint8(4), uint16(8), uint8(1), uint16(500), int64(7))
	f.Add(uint8(10), uint8(0), uint8(0), uint8(60), uint8(5), uint8(15), uint8(5), uint8(5),
		uint8(220), uint8(120), uint8(0), uint8(0), uint8(63), uint16(4095), uint8(63), uint16(65535), int64(-3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint8(0),
		uint8(1), uint8(255), uint8(128), uint8(32), uint8(0), uint16(0), uint8(0), uint16(1), int64(0))

	f.Fuzz(func(t *testing.T,
		wAlu, wMul, wDiv, wFP, wFPDiv, wLoad, wStore, wBranch uint8,
		depP, noDep, predictable, callFrac uint8,
		codeKB uint8, wsKB uint16, stride uint8, phaseLen uint16, seed int64) {

		prof, ok := fuzzProfile(wAlu, wMul, wDiv, wFP, wFPDiv, wLoad, wStore, wBranch,
			depP, noDep, predictable, callFrac, codeKB, wsKB, stride, phaseLen)
		if !ok {
			t.Skip("all mix weights zero")
		}
		if err := prof.Validate(); err != nil {
			t.Skipf("profile rejected: %v", err)
		}
		gen, err := trace.NewGenerator(prof, seed)
		if err != nil {
			t.Fatalf("Validate accepted but NewGenerator failed: %v", err)
		}
		ref, err := trace.NewGenerator(prof, seed)
		if err != nil {
			t.Fatal(err)
		}

		const n = 4096
		var in, in2 trace.Instr
		for i := 0; i < n; i++ {
			gen.Next(&in)
			ref.Next(&in2)
			if in != in2 {
				t.Fatalf("instr %d: generator not deterministic for seed %d:\n%+v\nvs\n%+v", i, seed, in, in2)
			}
			if in.Op >= trace.NumOps {
				t.Fatalf("instr %d: invalid op %d", i, in.Op)
			}
			if in.Op.IsMem() && in.Addr == 0 {
				t.Fatalf("instr %d: %v with zero address", i, in.Op)
			}
			if !in.Op.IsMem() && in.Addr != 0 {
				t.Fatalf("instr %d: %v carries address %#x", i, in.Op, in.Addr)
			}
			if in.Op.IsBranch() && in.Target == 0 {
				t.Fatalf("instr %d: %v with zero target", i, in.Op)
			}
			if in.PC == 0 {
				t.Fatalf("instr %d: zero PC", i)
			}
		}
		if got := gen.Generated(); got != n {
			t.Fatalf("Generated() = %d, want %d", got, n)
		}

		// The stream must drive the timing simulator to a sane result: IPC
		// finite, positive and bounded by the fetch width.
		proc := config.Base()
		replay, err := trace.NewGenerator(prof, seed)
		if err != nil {
			t.Fatal(err)
		}
		core, err := sim.New(proc, replay)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		res := core.Run(2000)
		if math.IsNaN(res.IPC) || math.IsInf(res.IPC, 0) {
			t.Fatalf("IPC is %v", res.IPC)
		}
		if res.IPC <= 0 {
			t.Fatalf("non-positive IPC %v (retired %d in %d cycles)", res.IPC, res.Retired, res.Cycles)
		}
		if res.IPC > float64(proc.FetchWidth) {
			t.Fatalf("IPC %v exceeds fetch width %d", res.IPC, proc.FetchWidth)
		}
		for i, a := range res.Activity {
			if math.IsNaN(a) || a < 0 || a > 1 {
				t.Fatalf("activity[%d] = %v out of [0,1]", i, a)
			}
		}
	})
}

// FuzzMixSum pins the Mix.Sum contract Validate relies on: the sum of a
// normalised mix is within the validator's tolerance band for any
// weight vector.
func FuzzMixSum(f *testing.F) {
	f.Add(uint8(40), uint8(2), uint8(1), uint8(10), uint8(1), uint8(25), uint8(10), uint8(11))
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, wAlu, wMul, wDiv, wFP, wFPDiv, wLoad, wStore, wBranch uint8) {
		prof, ok := fuzzProfile(wAlu, wMul, wDiv, wFP, wFPDiv, wLoad, wStore, wBranch,
			128, 128, 128, 0, 1, 1, 1, 100)
		if !ok {
			t.Skip()
		}
		if s := prof.Phases[0].Mix.Sum(); s < 0.999 || s > 1.001 {
			t.Fatalf("normalised mix sums to %v", s)
		}
	})
}
