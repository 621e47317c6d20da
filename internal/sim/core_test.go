package sim

import (
	"testing"

	"ramp/internal/config"
	"ramp/internal/floorplan"
	"ramp/internal/trace"
)

// scriptSource is a deterministic Source for microarchitecture tests: it
// cycles through a fixed pattern of instructions, assigning sequential
// PCs within a small code footprint.
type scriptSource struct {
	pattern []trace.Instr
	idx     int
	pc      uint64
}

func newScript(pattern []trace.Instr) *scriptSource {
	return &scriptSource{pattern: pattern, pc: 1 << 20}
}

func (s *scriptSource) Next(out *trace.Instr) {
	*out = s.pattern[s.idx%len(s.pattern)]
	s.idx++
	out.PC = s.pc
	if out.Taken {
		// Loop within a 4 KB footprint so the I-cache stays warm.
		out.Target = 1 << 20
		s.pc = out.Target
	} else {
		s.pc += 4
		if s.pc >= 1<<20+4096 {
			s.pc = 1 << 20
		}
	}
}

// mustNew is New for tests, panicking on config errors.
// mustNewGenerator is trace.NewGenerator, failing the test on an
// invalid profile.
func mustNewGenerator(t testing.TB, p trace.Profile, seed int64) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustNew(cfg config.Proc, gen Source) *Core {
	c, err := New(cfg, gen)
	if err != nil {
		panic(err)
	}
	return c
}

func run(t *testing.T, pattern []trace.Instr, n uint64) Result {
	t.Helper()
	c := mustNew(config.Base(), newScript(pattern))
	c.Run(n / 4) // warmup
	return c.Run(n)
}

func TestIndependentIntOpsBoundByALUs(t *testing.T) {
	// Independent single-cycle integer ops: throughput should approach
	// the 6 integer ALUs (fetch is 8-wide, so ALUs are the bottleneck).
	r := run(t, []trace.Instr{{Op: trace.IntAlu}}, 60_000)
	if r.IPC < 5.3 || r.IPC > 6.01 {
		t.Fatalf("independent int IPC = %v, want ~6", r.IPC)
	}
}

func TestSerialChainBoundByLatency(t *testing.T) {
	// Every op depends on the previous one: IPC ~ 1 (1-cycle latency).
	r := run(t, []trace.Instr{{Op: trace.IntAlu, Dep1: 1}}, 30_000)
	if r.IPC < 0.9 || r.IPC > 1.1 {
		t.Fatalf("serial chain IPC = %v, want ~1", r.IPC)
	}
}

func TestSerialMulChain(t *testing.T) {
	// Dependent multiplies: IPC ~ 1/7.
	r := run(t, []trace.Instr{{Op: trace.IntMul, Dep1: 1}}, 10_000)
	want := 1.0 / 7.0
	if r.IPC < want*0.85 || r.IPC > want*1.15 {
		t.Fatalf("mul chain IPC = %v, want ~%v", r.IPC, want)
	}
}

func TestFPDivNotPipelined(t *testing.T) {
	// Independent FP divides: 4 FPUs, each blocked 12 cycles per divide,
	// so throughput caps at 4/12 per cycle.
	r := run(t, []trace.Instr{{Op: trace.FPDiv}}, 10_000)
	want := 4.0 / 12.0
	if r.IPC > want*1.15 {
		t.Fatalf("FP div IPC = %v, exceeds non-pipelined cap %v", r.IPC, want)
	}
	if r.IPC < want*0.8 {
		t.Fatalf("FP div IPC = %v, far below cap %v", r.IPC, want)
	}
}

func TestSerialLoadChainHitLatency(t *testing.T) {
	// Dependent loads hitting L1D: IPC ~ 1/2 (2-cycle hits).
	r := run(t, []trace.Instr{{Op: trace.Load, Dep1: 1, Addr: 1 << 30}}, 20_000)
	want := 0.5
	if r.IPC < want*0.85 || r.IPC > want*1.15 {
		t.Fatalf("load chain IPC = %v, want ~%v", r.IPC, want)
	}
	if r.L1DMissRate > 0.01 {
		t.Fatalf("repeated-address loads missing: %v", r.L1DMissRate)
	}
}

// stridedMissSource emits loads marching through memory so that every
// load touches a new line (guaranteed miss).
type stridedMissSource struct {
	addr uint64
	dep  uint16
	pc   uint64
}

func (s *stridedMissSource) Next(out *trace.Instr) {
	s.addr += 4096 // new line and new L2 set every time
	s.pc += 4
	if s.pc >= 4096 {
		s.pc = 0
	}
	*out = trace.Instr{Op: trace.Load, Addr: s.addr, Dep1: s.dep, PC: 1<<21 + s.pc}
}

func TestSerialMissChainSeesMemoryLatency(t *testing.T) {
	c := mustNew(config.Base(), &stridedMissSource{dep: 1})
	r := c.Run(2_000)
	// Dependent always-miss loads: ~104 cycles each (102 memory + 2 L1).
	cpi := 1 / r.IPC
	if cpi < 95 || cpi > 120 {
		t.Fatalf("dependent miss chain CPI = %v, want ~104", cpi)
	}
}

func TestIndependentMissesOverlapViaMSHRs(t *testing.T) {
	c := mustNew(config.Base(), &stridedMissSource{})
	r := c.Run(5_000)
	// Independent misses: limited by 12 MSHRs over ~102 cycles, far
	// better than the serial chain but well below 1 IPC.
	if r.IPC < 0.08 {
		t.Fatalf("MSHR overlap missing: IPC = %v", r.IPC)
	}
	maxIPC := 12.0 / 102.0 * 1.3
	if r.IPC > maxIPC {
		t.Fatalf("IPC %v exceeds MSHR bandwidth cap %v", r.IPC, maxIPC)
	}
}

func TestStoreForwardingHidesMiss(t *testing.T) {
	// A store to a far (missing) address immediately followed by a
	// dependent-free load of the same address: forwarding should keep
	// throughput near hit latency despite the cold lines.
	fwd := []trace.Instr{
		{Op: trace.Store, Addr: 3 << 30},
		{Op: trace.Load, Addr: 3 << 30},
		{Op: trace.IntAlu}, {Op: trace.IntAlu},
	}
	r := run(t, fwd, 20_000)
	if r.IPC < 2.0 {
		t.Fatalf("forwarded loads too slow: IPC = %v", r.IPC)
	}
}

// branchSource emits blocks of ALU work ended by a single static branch
// whose outcome either stays fixed or alternates each execution.
type branchSource struct {
	alternate bool
	taken     bool
	slot      int
}

func (s *branchSource) Next(out *trace.Instr) {
	base := uint64(1 << 22)
	if s.slot < 3 {
		*out = trace.Instr{Op: trace.IntAlu, PC: base + uint64(s.slot)*4}
		s.slot++
		return
	}
	s.slot = 0
	taken := true
	if s.alternate {
		taken = s.taken
		s.taken = !s.taken
	}
	*out = trace.Instr{Op: trace.Branch, PC: base + 12, Taken: taken, Target: base}
}

func TestMispredictionCostsThroughput(t *testing.T) {
	runSrc := func(alt bool) Result {
		c := mustNew(config.Base(), &branchSource{alternate: alt})
		c.Run(10_000)
		return c.Run(40_000)
	}
	rs := runSrc(false) // one static branch, always taken
	ra := runSrc(true)  // same static branch, alternating outcome
	if rs.BranchAccuracy < 0.99 {
		t.Fatalf("steady branch should predict perfectly: %v", rs.BranchAccuracy)
	}
	if ra.BranchAccuracy > 0.75 {
		t.Fatalf("alternating branch should confuse bimodal: %v", ra.BranchAccuracy)
	}
	if ra.IPC > rs.IPC*0.8 {
		t.Fatalf("mispredictions too cheap: %v vs %v", ra.IPC, rs.IPC)
	}
}

func TestActivitiesInRange(t *testing.T) {
	g := mustNewGenerator(t, trace.Bzip2(), 1)
	c := mustNew(config.Base(), g)
	r := c.Run(50_000)
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		a := r.Activity[s]
		if a < 0 || a > 1 {
			t.Errorf("activity[%v] = %v out of range", s, a)
		}
	}
	if r.Activity[floorplan.IntALU] <= 0 || r.Activity[floorplan.L1D] <= 0 {
		t.Error("expected non-zero integer and cache activity")
	}
}

func TestIntOnlyWorkloadHasNoFPActivity(t *testing.T) {
	r := run(t, []trace.Instr{{Op: trace.IntAlu}}, 10_000)
	if r.Activity[floorplan.FPU] != 0 || r.Activity[floorplan.FPRF] != 0 {
		t.Fatalf("int-only run has FP activity: %v %v",
			r.Activity[floorplan.FPU], r.Activity[floorplan.FPRF])
	}
	if r.FPShare != 0 {
		t.Fatalf("FP share = %v", r.FPShare)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		g := mustNewGenerator(t, trace.Gzip(), 42)
		c := mustNew(config.Base(), g)
		c.Run(20_000)
		return c.Run(50_000)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunAccumulates(t *testing.T) {
	g := mustNewGenerator(t, trace.Twolf(), 1)
	c := mustNew(config.Base(), g)
	r1 := c.Run(10_000)
	r2 := c.Run(10_000)
	// Run completes whole cycles, so it may overshoot by up to one
	// retire group per call.
	slack := uint64(config.Base().RetireWidth - 1)
	if c.Retired() < 20_000 || c.Retired() > 20_000+2*slack {
		t.Fatalf("retired = %d", c.Retired())
	}
	if r1.Retired < 10_000 || r1.Retired > 10_000+slack ||
		r2.Retired < 10_000 || r2.Retired > 10_000+slack {
		t.Fatalf("epoch retire counts: %d %d", r1.Retired, r2.Retired)
	}
	if r1.Cycles == 0 || r2.Cycles == 0 {
		t.Fatal("zero cycle epochs")
	}
}

func TestWindowOccupancyBounded(t *testing.T) {
	g := mustNewGenerator(t, trace.Art(), 1)
	cfg := config.Base()
	c := mustNew(cfg, g)
	r := c.Run(30_000)
	if r.WindowOccupancy > float64(cfg.WindowSize) {
		t.Fatalf("occupancy %v exceeds window %d", r.WindowOccupancy, cfg.WindowSize)
	}
	if r.WindowOccupancy <= 0 {
		t.Fatal("zero occupancy")
	}
}

func TestSmallerWindowNeverFaster(t *testing.T) {
	ipc := func(w int) float64 {
		g := mustNewGenerator(t, trace.MPGdec(), 1)
		cfg := config.Base()
		cfg.WindowSize = w
		c := mustNew(cfg, g)
		c.Run(50_000)
		return c.Run(100_000).IPC
	}
	big, small := ipc(128), ipc(16)
	if small > big*1.02 { // 2% tolerance for path noise
		t.Fatalf("16-entry window (%v) beat 128-entry (%v)", small, big)
	}
	if small > big*0.9 {
		t.Fatalf("window scaling too weak: %v vs %v", small, big)
	}
}

func TestFrequencyScalingHurtsIPC(t *testing.T) {
	// Memory latency is wall-clock, so higher clocks see more cycles of
	// memory latency and IPC must drop for a memory-bound app.
	ipc := func(f float64) float64 {
		g := mustNewGenerator(t, trace.Art(), 1)
		c := mustNew(config.Base().WithOperatingPoint(f), g)
		c.Run(50_000)
		return c.Run(100_000).IPC
	}
	slow, fast := ipc(2.5e9), ipc(5e9)
	if fast >= slow {
		t.Fatalf("IPC did not drop with frequency: %v @2.5GHz vs %v @5GHz", slow, fast)
	}
}

func TestTimeSecUsesFrequency(t *testing.T) {
	g := mustNewGenerator(t, trace.Gzip(), 1)
	c := mustNew(config.Base().WithOperatingPoint(2.5e9), g)
	r := c.Run(10_000)
	want := float64(r.Cycles) / 2.5e9
	if r.TimeSec != want {
		t.Fatalf("TimeSec = %v, want %v", r.TimeSec, want)
	}
	if r.BIPS() <= 0 {
		t.Fatal("BIPS should be positive")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Base()
	cfg.WindowSize = 0
	if _, err := New(cfg, newScript([]trace.Instr{{Op: trace.IntAlu}})); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestICacheFootprintMatters(t *testing.T) {
	// Identical workloads except for static code size: a footprint far
	// beyond the 32 KB L1I must fetch-stall and lose throughput.
	mk := func(codeBytes uint64) float64 {
		p := trace.Profile{
			Name: "icache", Class: "t", PhaseLen: 100_000,
			Phases: []trace.Phase{{
				Name: "p", Weight: 1,
				Mix:      trace.Mix{IntAlu: 0.85, Load: 0.05, Store: 0.02, Branch: 0.08},
				DepGeomP: 0.3, NoDepFrac: 0.5,
				CodeBytes: codeBytes,
				Streams: []trace.Stream{
					{Kind: trace.Strided, WorkingSet: 4 << 10, StrideBytes: 8, Weight: 1},
				},
				PredictableFrac: 0.95, CallFrac: 0.05,
			}},
		}
		g := mustNewGenerator(t, p, 1)
		c := mustNew(config.Base(), g)
		c.Run(50_000)
		return c.Run(100_000).IPC
	}
	smallCode, bigCode := mk(8<<10), mk(512<<10)
	if bigCode >= smallCode*0.95 {
		t.Fatalf("I-cache pressure had no effect: %v vs %v", smallCode, bigCode)
	}
}
