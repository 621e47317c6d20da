// Package trace generates synthetic instruction traces that stand in for
// the paper's workloads (three multimedia codes, three SpecInt and three
// SpecFP applications, Table 2).
//
// We do not have the SPEC2000/multimedia binaries or an ISA front end, so
// each application is modelled as a statistical program. For every phase
// the generator synthesizes a *static* program once — functions made of
// basic blocks; straightline slots drawn from the phase's instruction mix
// with fixed register dependency distances; memory sites bound to data
// reference streams; branch sites with fixed taken-probability biases and
// targets — and then produces the dynamic stream by executing that
// program. Static structure is what lets a real branch predictor train,
// gives the I-cache a stable code footprint, and gives the data caches
// stream locality, while the knobs (mix, dependency distances, working
// sets, branch bias distribution) set the IPC and per-structure activity
// the paper's evaluation depends on.
//
// Profiles are calibrated so the base-processor IPC and power approximate
// Table 2 (see EXPERIMENTS.md). Generators are deterministic for a given
// (profile, seed) pair.
package trace

import (
	"fmt"
	"math/rand"
)

// Op is an instruction class. Latencies and functional-unit bindings are
// the simulator's concern; the trace only carries the class.
type Op uint8

// Instruction classes.
const (
	IntAlu Op = iota // single-cycle integer op
	IntMul           // integer multiply
	IntDiv           // integer divide
	FPOp             // pipelined FP op (add/mul/...)
	FPDiv            // FP divide (not pipelined)
	Load
	Store
	Branch // conditional branch
	Call   // call (pushes the return address)
	Ret    // return
	NumOps
)

var opNames = [NumOps]string{
	IntAlu: "IntAlu", IntMul: "IntMul", IntDiv: "IntDiv",
	FPOp: "FPOp", FPDiv: "FPDiv", Load: "Load", Store: "Store",
	Branch: "Branch", Call: "Call", Ret: "Ret",
}

// String returns the op's name.
func (o Op) String() string {
	if o >= NumOps {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return opNames[o]
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == Load || o == Store }

// IsBranch reports whether the op redirects control flow.
func (o Op) IsBranch() bool { return o == Branch || o == Call || o == Ret }

// IsFP reports whether the op uses the floating-point pipeline.
func (o Op) IsFP() bool { return o == FPOp || o == FPDiv }

// Instr is one dynamic instruction.
type Instr struct {
	PC uint64
	Op Op

	// Dep1/Dep2 are register dependency distances: the producing
	// instruction is DepN dynamic instructions earlier (1 = the previous
	// instruction). 0 means no register dependence for that operand.
	Dep1, Dep2 uint16

	// Addr is the effective address for Load/Store.
	Addr uint64

	// Taken and Target describe the actual outcome for branch ops.
	Taken  bool
	Target uint64
}

// Mix is an instruction-class mix; entries must sum to ~1. The Branch
// share covers conditional branches, calls and returns together.
type Mix struct {
	IntAlu, IntMul, IntDiv float64
	FPOp, FPDiv            float64
	Load, Store            float64
	Branch                 float64
}

// Sum returns the total of all mix fractions.
func (m Mix) Sum() float64 {
	return m.IntAlu + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv + m.Load + m.Store + m.Branch
}

// StreamKind selects a data reference pattern.
type StreamKind uint8

// Data reference stream kinds.
const (
	// Strided walks an array with a fixed stride, wrapping at the
	// working-set boundary; it has high spatial locality when the stride
	// is below the line size.
	Strided StreamKind = iota
	// RandomInSet touches uniformly random words within the working set;
	// its hit ratio is governed by how much of the set fits in the cache.
	RandomInSet
)

// Stream describes one data reference stream.
type Stream struct {
	Kind        StreamKind
	WorkingSet  uint64  // bytes
	StrideBytes uint64  // for Strided
	Weight      float64 // share of static memory sites bound to this stream
}

// Phase is a stationary program phase.
type Phase struct {
	Name string
	// Weight is the relative dynamic-instruction share of this phase.
	Weight float64
	Mix    Mix
	// DepGeomP is the parameter of the geometric dependency-distance
	// distribution; larger P means shorter distances and less ILP.
	DepGeomP float64
	// NoDepFrac is the probability that an operand has no register
	// dependence (immediate/loop-invariant value).
	NoDepFrac float64
	// CodeBytes is the static code footprint of this phase (4 bytes per
	// instruction).
	CodeBytes uint64
	// Streams describe data references; weights are normalised.
	Streams []Stream
	// PredictableFrac is the fraction of static branch sites with a
	// heavily biased outcome (taken with probability 0.015 or 0.985); the
	// rest are weakly biased and hard to predict.
	PredictableFrac float64
	// CallFrac is the probability that a block terminator is a call site.
	CallFrac float64
}

// Profile is a complete synthetic application.
type Profile struct {
	Name string
	// Class is a free-form label ("multimedia", "SpecInt", "SpecFP").
	Class string
	// PhaseLen is the number of dynamic instructions per phase visit
	// (scaled by each phase's weight).
	PhaseLen int
	Phases   []Phase

	// PaperIPC and PaperPowerW record Table 2 for calibration reporting.
	PaperIPC    float64
	PaperPowerW float64
}

// Validate checks the profile's internal consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile without name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: profile %s has no phases", p.Name)
	}
	if p.PhaseLen <= 0 {
		return fmt.Errorf("trace: profile %s has non-positive phase length", p.Name)
	}
	for _, ph := range p.Phases {
		if s := ph.Mix.Sum(); s < 0.999 || s > 1.001 {
			return fmt.Errorf("trace: profile %s phase %s mix sums to %v", p.Name, ph.Name, s)
		}
		if ph.DepGeomP <= 0 || ph.DepGeomP >= 1 {
			return fmt.Errorf("trace: profile %s phase %s DepGeomP %v out of (0,1)", p.Name, ph.Name, ph.DepGeomP)
		}
		if ph.CodeBytes < 256 {
			return fmt.Errorf("trace: profile %s phase %s code footprint %d too small", p.Name, ph.Name, ph.CodeBytes)
		}
		if len(ph.Streams) == 0 {
			return fmt.Errorf("trace: profile %s phase %s has no data streams", p.Name, ph.Name)
		}
		var w float64
		for _, st := range ph.Streams {
			if st.WorkingSet == 0 {
				return fmt.Errorf("trace: profile %s phase %s stream with zero working set", p.Name, ph.Name)
			}
			if st.Kind == Strided && st.StrideBytes == 0 {
				return fmt.Errorf("trace: profile %s phase %s strided stream with zero stride", p.Name, ph.Name)
			}
			w += st.Weight
		}
		if w <= 0 {
			return fmt.Errorf("trace: profile %s phase %s has zero stream weight", p.Name, ph.Name)
		}
		if ph.PredictableFrac < 0 || ph.PredictableFrac > 1 {
			return fmt.Errorf("trace: profile %s phase %s PredictableFrac out of [0,1]", p.Name, ph.Name)
		}
	}
	return nil
}

// staticInstr is one slot of a phase's synthesized static program.
type staticInstr struct {
	op         Op
	dep1, dep2 uint16
	stream     uint16  // memory ops: index into the phase's streams
	bias       float32 // Branch: probability taken
	target     uint32  // Branch/Call: target instruction index
}

// streamState is the dynamic cursor of one data stream.
type streamState struct {
	spec Stream
	base uint64
	pos  uint64
}

// phaseRT is the per-phase runtime: the synthesized program plus dynamic
// execution state, persisted across phase visits.
type phaseRT struct {
	prog      []staticInstr
	codeBase  uint64
	streams   []streamState
	pc        uint32
	callStack []uint32
}

const maxCallDepth = 24

// Generator produces the dynamic instruction stream of a profile.
type Generator struct {
	prof Profile
	rng  *rand.Rand

	phases    []phaseRT
	phaseIdx  int
	phaseLeft int
	generated uint64

	// Program-synthesis scratch, reused across Reset calls so a pooled
	// generator rebuilds without allocating.
	funcScratch  []uint32
	blockScratch []uint32
}

// NewGenerator returns a deterministic generator for profile p and seed.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	g := &Generator{rng: rand.New(rand.NewSource(seed))}
	if err := g.Reset(p, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset reinitialises the generator in place for profile p and seed,
// after which its output is bit-identical to a fresh
// NewGenerator(p, seed). Program synthesis is deterministic in
// (profile, seed), so re-seeding the source and rebuilding every phase
// restores both the static programs and the generator's stream state
// exactly; phase runtimes (program slots, stream cursors, call stacks)
// reuse their previous allocations whenever the shapes match, making a
// same-profile Reset allocation-free in steady state.
func (g *Generator) Reset(p Profile, seed int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g.prof = p
	g.rng.Seed(seed)
	if len(g.phases) != len(p.Phases) {
		g.phases = make([]phaseRT, len(p.Phases))
	}
	for i := range p.Phases {
		g.buildPhase(i)
	}
	g.phaseIdx = 0
	g.phaseLeft = g.phaseLen(0)
	g.generated = 0
	return nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Generated returns the number of instructions generated so far.
func (g *Generator) Generated() uint64 { return g.generated }

// phaseLen returns the visit length for phase idx, scaled by its weight.
func (g *Generator) phaseLen(idx int) int {
	ph := g.prof.Phases[idx]
	w := ph.Weight
	if w <= 0 {
		w = 1
	}
	n := int(float64(g.prof.PhaseLen) * w)
	if n < 1 {
		n = 1
	}
	return n
}

// buildPhase synthesizes phase idx's static program and stream state.
func (g *Generator) buildPhase(idx int) {
	ph := &g.prof.Phases[idx]
	rt := &g.phases[idx]
	rt.codeBase = uint64(idx+1) << 32

	// Streams: distinct address regions per phase and per stream.
	var wsum float64
	for _, s := range ph.Streams {
		wsum += s.Weight
	}
	dataBase := uint64(idx+1)<<40 | 1<<39
	if len(rt.streams) != len(ph.Streams) {
		rt.streams = make([]streamState, len(ph.Streams))
	}
	for i, s := range ph.Streams {
		rt.streams[i] = streamState{spec: s, base: dataBase + uint64(i)<<34}
	}

	n := int(ph.CodeBytes / 4)
	if n < 64 {
		n = 64
	}
	var prog []staticInstr
	if cap(rt.prog) >= n {
		// Rebuild in place; clear first so slots the fill passes only
		// partially write (e.g. a terminator over a former memory op)
		// match a freshly allocated program exactly.
		prog = rt.prog[:n]
		clear(prog)
	} else {
		prog = make([]staticInstr, n)
	}

	// Partition the program into functions of contiguous blocks.
	numFuncs := n / 600
	if numFuncs < 2 {
		numFuncs = 2
	}
	if numFuncs > 48 {
		numFuncs = 48
	}
	if cap(g.funcScratch) < numFuncs {
		g.funcScratch = make([]uint32, numFuncs)
	}
	funcStart := g.funcScratch[:numFuncs]
	for f := 0; f < numFuncs; f++ {
		funcStart[f] = uint32(f * n / numFuncs)
	}
	funcEnd := func(f int) uint32 {
		if f == numFuncs-1 {
			return uint32(n)
		}
		return funcStart[f+1]
	}

	bf := ph.Mix.Branch
	meanBlock := 8.0
	if bf > 0 {
		meanBlock = 1/bf - 1
	}
	if meanBlock < 1 {
		meanBlock = 1
	}

	// Cumulative mix for straightline ops (branch share excluded).
	type opw struct {
		op Op
		w  float64
	}
	ops := []opw{
		{IntAlu, ph.Mix.IntAlu}, {IntMul, ph.Mix.IntMul}, {IntDiv, ph.Mix.IntDiv},
		{FPOp, ph.Mix.FPOp}, {FPDiv, ph.Mix.FPDiv},
		{Load, ph.Mix.Load}, {Store, ph.Mix.Store},
	}
	var slSum float64
	for _, o := range ops {
		slSum += o.w
	}

	pickStream := func() uint16 {
		r := g.rng.Float64() * wsum
		var acc float64
		for i, s := range ph.Streams {
			acc += s.Weight
			if r <= acc {
				return uint16(i)
			}
		}
		return uint16(len(ph.Streams) - 1)
	}
	depDist := func() uint16 {
		if g.rng.Float64() < ph.NoDepFrac {
			return 0
		}
		d := 1
		for d < 192 && g.rng.Float64() > ph.DepGeomP {
			d++
		}
		return uint16(d)
	}

	fillStraightline := func(i uint32) {
		si := &prog[i]
		r := g.rng.Float64() * slSum
		var acc float64
		si.op = IntAlu
		for _, o := range ops {
			acc += o.w
			if r <= acc {
				si.op = o.op
				break
			}
		}
		si.dep1 = depDist()
		si.dep2 = depDist()
		if si.op.IsMem() {
			si.stream = pickStream()
		}
	}

	// Control-flow structure: each function's blocks execute mostly in
	// sequence; conditional branches are forward skips of a few blocks
	// ("if" patterns) or short self-loops ("inner loops"), and the
	// function's tail branches back to its start with high probability
	// (the iterating outer loop). This keeps the dynamic instruction
	// distribution close to the static one, which is what makes the
	// profile knobs (mix, streams, biases) controllable.
	for f := 0; f < numFuncs; f++ {
		start, end := funcStart[f], funcEnd(f)

		// Pass 1: lay out basic-block boundaries.
		blockStarts := g.blockScratch[:0]
		i := start
		for i < end {
			blockStarts = append(blockStarts, i)
			blockLen := 1
			for float64(blockLen) < meanBlock*6 && g.rng.Float64() > 1/(meanBlock+1) {
				blockLen++
			}
			i += uint32(blockLen) + 1 // +1 for the terminator slot
		}
		nb := len(blockStarts)
		blockEnd := func(b int) uint32 {
			if b == nb-1 {
				return end - 1
			}
			return blockStarts[b+1] - 1
		}

		// Pass 2: fill blocks and terminators.
		for b := 0; b < nb; b++ {
			for i := blockStarts[b]; i < blockEnd(b); i++ {
				fillStraightline(i)
			}
			term := blockEnd(b)
			si := &prog[term]
			si.dep1 = depDist()
			last := b == nb-1
			switch {
			case last && f == 0:
				// Main outer loop: strongly taken back edge.
				si.op = Branch
				si.bias = 0.98
				si.target = start
			case last:
				si.op = Ret
			case g.rng.Float64() < ph.CallFrac:
				si.op = Call
				callee := g.rng.Intn(numFuncs)
				if callee == f {
					callee = (callee + 1) % numFuncs
				}
				si.target = funcStart[callee]
			case g.rng.Float64() < 0.15:
				// Inner loop: branch back to this block's own start. High
				// trip counts keep loop back edges predictor-friendly, as
				// in real hot loops.
				si.op = Branch
				si.target = blockStarts[b]
				if g.rng.Float64() < ph.PredictableFrac {
					si.bias = 0.985 // ~66 iterations
				} else {
					si.bias = float32(0.3 + 0.4*g.rng.Float64())
				}
			default:
				// Forward skip of 1-4 blocks.
				skip := 1 + g.rng.Intn(4)
				tb := b + 1 + skip
				if tb >= nb {
					tb = nb - 1
				}
				si.op = Branch
				si.target = blockStarts[tb]
				if g.rng.Float64() < ph.PredictableFrac {
					if g.rng.Float64() < 0.8 {
						si.bias = 0.015 // almost always falls through
					} else {
						si.bias = 0.985 // dead-code skip
					}
				} else {
					si.bias = float32(0.3 + 0.4*g.rng.Float64())
				}
			}
		}
		g.blockScratch = blockStarts // keep the grown backing array
	}
	rt.prog = prog
	rt.pc = 0
	rt.callStack = rt.callStack[:0]
}

// Next fills out with the next dynamic instruction.
func (g *Generator) Next(out *Instr) {
	if g.phaseLeft <= 0 {
		g.phaseIdx = (g.phaseIdx + 1) % len(g.phases)
		g.phaseLeft = g.phaseLen(g.phaseIdx)
	}
	g.phaseLeft--
	g.generated++

	rt := &g.phases[g.phaseIdx]
	if rt.pc >= uint32(len(rt.prog)) {
		rt.pc = 0
	}
	si := &rt.prog[rt.pc]
	*out = Instr{
		PC:   rt.codeBase + uint64(rt.pc)*4,
		Op:   si.op,
		Dep1: si.dep1,
		Dep2: si.dep2,
	}
	switch si.op {
	case Branch:
		out.Taken = g.rng.Float64() < float64(si.bias)
		out.Target = rt.codeBase + uint64(si.target)*4
		if out.Taken {
			rt.pc = si.target
		} else {
			rt.pc++
		}
	case Call:
		if len(rt.callStack) < maxCallDepth {
			out.Taken = true
			out.Target = rt.codeBase + uint64(si.target)*4
			rt.callStack = append(rt.callStack, rt.pc+1)
			rt.pc = si.target
		} else {
			// Depth cap: degrade to a predictable not-taken branch.
			out.Op = Branch
			out.Taken = false
			out.Target = rt.codeBase + uint64(si.target)*4
			rt.pc++
		}
	case Ret:
		out.Taken = true
		if n := len(rt.callStack); n > 0 {
			ret := rt.callStack[n-1]
			rt.callStack = rt.callStack[:n-1]
			out.Target = rt.codeBase + uint64(ret)*4
			rt.pc = ret
		} else {
			// Underflow (phase was entered mid-function): restart the
			// main loop; the RAS will mispredict this one.
			out.Target = rt.codeBase
			rt.pc = 0
		}
	case Load, Store:
		out.Addr = g.nextAddr(rt, int(si.stream))
		rt.pc++
	default:
		rt.pc++
	}
}

func (g *Generator) nextAddr(rt *phaseRT, idx int) uint64 {
	st := &rt.streams[idx]
	switch st.spec.Kind {
	case Strided:
		st.pos = (st.pos + st.spec.StrideBytes) % st.spec.WorkingSet
		return st.base + st.pos
	default: // RandomInSet
		off := g.rng.Uint64() % st.spec.WorkingSet
		return st.base + (off &^ 7) // 8-byte aligned
	}
}
