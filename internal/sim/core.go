// Package sim is a trace-driven, cycle-level out-of-order processor
// timing simulator in the spirit of RSIM (the paper's timing simulator).
//
// The model: an 8-wide front end with a bimodal-agree branch predictor
// and return address stack feeding, after a short pipeline delay, a
// unified instruction window (issue queue + reorder buffer, Section 6.1)
// with a separate physical register file. Instructions issue oldest-first
// to per-class functional units (integer ALUs, FPUs, address-generation
// units), loads and stores flow through a memory queue and a two-ported
// L1D with a finite MSHR file, misses go to an off-chip L2 and then main
// memory with fixed wall-clock latencies (so their cycle cost scales with
// the clock under DVS), and completed instructions retire in order.
//
// Because the simulator is trace-driven, branch mispredictions are
// modelled as fetch stalls from the mispredicted branch until one cycle
// after it resolves (plus the front-end refill depth) rather than by
// executing wrong-path instructions.
//
// Alongside timing, the simulator counts per-structure events and
// converts them into the activity factors that drive the power model and
// RAMP's electromigration model.
package sim

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/config"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

const farFuture = math.MaxUint64 / 2

// histLen is the number of completion-time history slots, indexed by
// sequence number modulo histLen. A producer's slot is reused only when
// an instruction histLen younger is fetched, so as long as dependency
// distances stay within histLen minus the instructions in flight (window
// plus fetch queue), no slot is reused while a consumer of it is still in
// the window. The trace generator caps distances at 192; dispatch asserts
// the bound under the rampdebug tag.
const histLen = 2048

// noDep is the history slot of an absent operand: it is never written,
// so it always reads 0 ("finished before the run").
const noDep = histLen

// Result summarises one simulated run (or epoch).
type Result struct {
	Cycles  uint64
	Retired uint64

	// TimeSec is Cycles at the configured clock.
	TimeSec float64

	// IPC is Retired/Cycles.
	IPC float64

	// Activity factors per structure, in [0,1]: the utilisation of each
	// structure's per-cycle capacity. These drive dynamic power and the
	// electromigration model.
	Activity [floorplan.NumStructures]float64

	// Diagnostics.
	BranchAccuracy  float64
	L1DMissRate     float64
	L1IMissRate     float64
	L2MissRate      float64
	WindowOccupancy float64 // mean occupied window entries
	FPShare         float64 // fraction of retired instructions that are FP
}

// BIPS returns billions of instructions per second for the run.
func (r Result) BIPS() float64 {
	if r.TimeSec == 0 {
		return 0
	}
	return float64(r.Retired) / r.TimeSec / 1e9
}

type entry struct {
	instr  trace.Instr
	seq    uint64
	finish uint64 // cycle the result is available; farFuture until issued
}

// pending is one unissued window entry in the issue queue. Its ready
// cycle is max(hist[dep1], hist[dep2]): farFuture while a producer has
// not issued, and final once both have, because their history slots are
// not reused while the consumer waits.
type pending struct {
	ready      uint64
	idx        int32  // window index
	dep1, dep2 uint16 // history slots of the producers; noDep = none
}

// storeRef is one in-window store as store-to-load forwarding sees it.
type storeRef struct {
	seq  uint64
	word uint64 // address of the 8-byte word written
}

type fetchedInstr struct {
	instr   trace.Instr
	seq     uint64
	availAt uint64 // cycle the instruction reaches rename
}

// counters collects raw per-structure event counts for one epoch.
type counters struct {
	fetched       uint64
	bpredAccesses uint64
	winDispatch   uint64
	winIssue      uint64
	winRetire     uint64
	intRFReads    uint64
	intRFWrites   uint64
	fpRFReads     uint64
	fpRFWrites    uint64
	intOps        uint64
	aguOps        uint64
	fpOps         uint64
	lsqOps        uint64
	l1iAccesses   uint64
	l1dAccesses   uint64
	occupancySum  uint64
	fpRetired     uint64

	branchLookups0    uint64
	branchWrong0      uint64
	l1dAcc0, l1dMiss0 uint64
	l1iAcc0, l1iMiss0 uint64
	l2Acc0, l2Miss0   uint64
}

// Source produces the dynamic instruction stream a Core executes.
// *trace.Generator is the production implementation.
type Source interface {
	Next(*trace.Instr)
}

// Core is one simulated processor executing one application trace.
type Core struct {
	cfg config.Proc
	gen Source

	cycle uint64
	seq   uint64 // next sequence number to assign at fetch (first is 1)

	// Fetch queue: a fixed-capacity ring buffer (capacity fetchQCap).
	// Fetched instructions are generated directly into the tail slot, so
	// the fetch loop performs no allocation and no copying beyond the
	// generator's own write.
	fq           []fetchedInstr
	fqHead       int
	fqLen        int
	fetchQCap    int
	fetchBlocked uint64 // seq of unresolved mispredicted branch; 0 = none
	fetchStallTo uint64 // cycle until which fetch is stalled (I-miss / redirect)
	lastLine     uint64 // last I-cache line touched (+1; 0 = none)

	bpred *BPred

	// Window.
	win      []entry
	winHead  int
	winCount int
	memQUsed int

	// Issue queue: the unissued window entries in age order.
	pend  []pending
	npend int
	// nextReady is the earliest cycle a pending entry can issue, as of
	// the last issue stage: that stage's own cycle if an entry was ready
	// but found no unit, port or MSHR.
	nextReady uint64

	// In-window stores in age order (a ring), for store-to-load
	// forwarding.
	stq     []storeRef
	stqHead int
	stqLen  int

	// Completion-time history, indexed by seq modulo histLen, plus the
	// always-zero noDep slot.
	hist [histLen + 1]uint64

	// Functional-unit non-pipelined busy tracking.
	intBusyUntil []uint64
	fpBusyUntil  []uint64

	// Memory hierarchy.
	l1d, l1i, l2 *Cache
	dMSHR        *mshrFile
	iMSHR        *mshrFile
	l2Cycles     uint64
	memCycles    uint64

	c counters

	retiredTotal uint64

	// Observability counters (nil = uncounted; see Instrument).
	obsRetired *obs.Counter
	obsCycles  *obs.Counter
}

// Instrument attaches pipeline-wide counters that Run feeds after every
// epoch: instructions retired and cycles simulated. Nil counters (the
// default) cost a nil-check no-op per epoch, nothing per cycle.
func (c *Core) Instrument(retired, cycles *obs.Counter) {
	c.obsRetired = retired
	c.obsCycles = cycles
}

// New builds a core for cfg running the given source's trace.
func New(cfg config.Proc, gen Source) (*Core, error) {
	c := &Core{}
	if err := c.Reset(cfg, gen); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset reinitialises the core in place for a (possibly different)
// configuration and trace source, producing a core whose subsequent
// behaviour is bit-identical to a freshly constructed one. Buffers are
// reused whenever their shape is unchanged — the functional-unit
// trackers, caches, MSHR files and branch predictor all keep their
// allocations across evaluations of different applications and
// configurations, and the window, issue queue, store queue and fetch
// ring whenever their capacity suffices — so pooled cores make
// steady-state evaluation allocation-free. Observability counters
// attached with Instrument survive a Reset (re-attach to change them).
func (c *Core) Reset(cfg config.Proc, gen Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := c.cfg
	c.cfg = cfg
	c.gen = gen

	c.cycle = 0
	c.seq = 0
	c.fetchBlocked = 0
	c.fetchStallTo = 0
	c.lastLine = 0
	c.winHead = 0
	c.winCount = 0
	c.memQUsed = 0
	c.npend = 0
	c.stqHead, c.stqLen = 0, 0
	c.retiredTotal = 0
	c.c = counters{}
	clear(c.hist[:]) // everything "already finished" before the run

	c.fetchQCap = cfg.FetchWidth * (cfg.FrontLatency + 2)
	c.fq = resize(c.fq, c.fetchQCap)
	c.fqHead, c.fqLen = 0, 0

	if c.bpred == nil || old.BPredBytes != cfg.BPredBytes || old.RASEntries != cfg.RASEntries {
		c.bpred = NewBPred(cfg.BPredBytes, cfg.RASEntries)
	} else {
		c.bpred.Reset()
	}
	c.win = resize(c.win, cfg.WindowSize)
	c.pend = resize(c.pend, cfg.WindowSize)
	c.stq = resize(c.stq, cfg.WindowSize)
	if len(c.intBusyUntil) != cfg.IntALUs {
		c.intBusyUntil = make([]uint64, cfg.IntALUs)
	} else {
		clear(c.intBusyUntil)
	}
	if len(c.fpBusyUntil) != cfg.FPUs {
		c.fpBusyUntil = make([]uint64, cfg.FPUs)
	} else {
		clear(c.fpBusyUntil)
	}
	c.l1d = resetCache(c.l1d, old.L1D, cfg.L1D)
	c.l1i = resetCache(c.l1i, old.L1I, cfg.L1I)
	c.l2 = resetCache(c.l2, old.L2, cfg.L2)
	if c.dMSHR == nil {
		c.dMSHR = newMSHRFile(cfg.L1D.MSHRs)
	} else {
		c.dMSHR.reset(cfg.L1D.MSHRs)
	}
	if c.iMSHR == nil {
		c.iMSHR = newMSHRFile(cfg.L1I.MSHRs)
	} else {
		c.iMSHR.reset(cfg.L1I.MSHRs)
	}
	c.l2Cycles = uint64(math.Ceil(cfg.L2.HitLatencySec * cfg.FreqHz))
	c.memCycles = uint64(math.Ceil(cfg.MemLatencySec * cfg.FreqHz))
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The rings and queues it sizes never read a slot the
// current run has not written, so stale contents are harmless.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetCache reuses c when the geometry is unchanged, else builds a
// fresh cache.
func resetCache(c *Cache, old, next config.CacheConfig) *Cache {
	if c == nil || old != next {
		return NewCache(next)
	}
	c.Reset()
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() config.Proc { return c.cfg }

// SetOperatingPoint changes the clock and supply voltage between epochs
// (dynamic voltage and frequency scaling). Microarchitectural and cache
// state is preserved — only the cycle cost of the fixed-wall-clock
// off-chip latencies changes. Latencies of requests already in flight
// keep their old cycle counts, which mirrors a real DVS transition
// closely enough at epoch granularity.
func (c *Core) SetOperatingPoint(freqHz, vddV float64) {
	c.cfg.FreqHz = freqHz
	c.cfg.VddV = vddV
	c.l2Cycles = uint64(math.Ceil(c.cfg.L2.HitLatencySec * freqHz))
	c.memCycles = uint64(math.Ceil(c.cfg.MemLatencySec * freqHz))
}

// Retired returns the total instructions retired since construction.
func (c *Core) Retired() uint64 { return c.retiredTotal }

// Run simulates until at least n more instructions retire and returns
// the stats for that span (whole cycles complete, so the span may
// overshoot n by up to RetireWidth-1 instructions). Microarchitectural
// and cache state carries over between calls, so consecutive calls
// behave like consecutive epochs of one long run.
//
//ramp:hot
func (c *Core) Run(n uint64) Result {
	if n == 0 {
		return Result{}
	}
	startCycle := c.cycle
	target := c.retiredTotal + n
	c.snapshotDiagBases()

	maxCycles := c.cycle + n*200 + 1_000_000 // deadlock guard
	for c.retiredTotal < target {
		c.step()
		if c.cycle > maxCycles {
			panic(fmt.Sprintf("sim: no forward progress after %d cycles (retired %d of %d)",
				c.cycle-startCycle, c.retiredTotal, target))
		}
	}
	res := c.makeResult(startCycle)
	c.obsRetired.Add(int64(res.Retired))
	c.obsCycles.Add(int64(res.Cycles))
	return res
}

// step advances the core by one cycle, and then over every following
// cycle in which no stage could make progress.
//
//ramp:hot
func (c *Core) step() {
	retired := c.retire()
	issued := c.issue()
	dispatched := c.dispatch()
	fetched := c.fetch()
	c.c.occupancySum += uint64(c.winCount)
	next := c.cycle + 1
	if !retired && !issued && !dispatched && !fetched {
		if wake := c.wakeCycle(); wake > next && wake < farFuture {
			c.c.occupancySum += uint64(c.winCount) * (wake - next)
			next = wake
		}
	}
	c.cycle = next
}

// wakeCycle returns the first cycle after an idle one — a cycle that
// retired, issued, dispatched and fetched nothing and did not redirect
// fetch — at which a stage can act again. Every stage is then waiting on
// a time it already knows: the window head's finish, the earliest known
// operand-ready cycle in the issue queue, the fetch queue head reaching
// rename, the end of a fetch stall, or the mispredicted branch's finish.
// An entry still waiting on an unissued producer wakes only after that
// producer issues, itself one of these events. Nothing else changes
// between events (MSHRs are pruned only when a miss or fetch asks for
// one), so jumping to the earliest of them is exact.
func (c *Core) wakeCycle() uint64 {
	wake := c.nextReady
	if c.winCount > 0 {
		wake = min(wake, c.win[c.winHead].finish)
	}
	// A fetch queue head that has already reached rename waits on a
	// window or memory queue slot, which only retirement frees.
	if c.fqLen > 0 && c.fq[c.fqHead].availAt > c.cycle {
		wake = min(wake, c.fq[c.fqHead].availAt)
	}
	// Fetch that fetched nothing is stalled, blocked on a mispredicted
	// branch, or facing a full queue that only dispatch drains.
	if c.fetchStallTo > c.cycle {
		wake = min(wake, c.fetchStallTo)
	} else if c.fetchBlocked != 0 {
		wake = min(wake, c.hist[c.fetchBlocked%histLen])
	}
	return wake
}

// ---- Retire ----

//ramp:hot
func (c *Core) retire() bool {
	k := 0
	for ; k < c.cfg.RetireWidth && c.winCount > 0; k++ {
		e := &c.win[c.winHead]
		if e.finish > c.cycle {
			break
		}
		switch op := e.instr.Op; {
		case op == trace.Store:
			c.stqHead++
			if c.stqHead == len(c.stq) {
				c.stqHead = 0
			}
			c.stqLen--
			c.memQUsed--
		case op == trace.Load:
			c.memQUsed--
		case op.IsFP():
			c.c.fpRetired++
		}
		c.c.winRetire++
		c.winHead++
		if c.winHead == len(c.win) {
			c.winHead = 0
		}
		c.winCount--
		c.retiredTotal++
	}
	return k > 0
}

// ---- Issue ----

// issue walks the issue queue oldest first, issuing every entry whose
// operands are ready and whose unit class has a free slot, and compacts
// the queue in place around the entries that issued.
//
//ramp:hot
func (c *Core) issue() bool {
	intSlots := c.freeUnits(c.intBusyUntil)
	fpSlots := c.freeUnits(c.fpBusyUntil)
	aguSlots := c.cfg.AGUs
	dPorts := c.cfg.L1D.Ports

	pend := c.pend[:c.npend]
	next := uint64(farFuture)
	kept, i := 0, 0
	for ; i < len(pend); i++ {
		if intSlots == 0 && fpSlots == 0 && (aguSlots == 0 || dPorts == 0) {
			break
		}
		p := pend[i]
		if p.ready == farFuture {
			p.ready = max(c.hist[p.dep1], c.hist[p.dep2])
		}
		if p.ready > c.cycle {
			next = min(next, p.ready)
			pend[kept] = p
			kept++
			continue
		}
		e := &c.win[p.idx]
		op := e.instr.Op
		switch {
		case op == trace.Load || op == trace.Store:
			if aguSlots == 0 || dPorts == 0 {
				break
			}
			lat, ok := c.memLatency(e)
			if !ok {
				break // MSHRs full; retry next cycle
			}
			aguSlots--
			dPorts--
			c.c.aguOps++
			c.c.lsqOps++
			c.c.l1dAccesses++
			c.c.intRFReads += 2
			c.complete(e, c.cycle+lat)
			if op == trace.Load {
				c.c.intRFWrites++
			}
			continue
		case op.IsFP():
			if fpSlots == 0 {
				break
			}
			fpSlots--
			c.c.fpOps++
			c.c.fpRFReads += 2
			c.c.fpRFWrites++
			lat := uint64(c.cfg.FPLat)
			if op == trace.FPDiv {
				lat = uint64(c.cfg.FPDivLat)
				c.occupyUnit(c.fpBusyUntil, c.cycle+lat)
			}
			c.complete(e, c.cycle+lat)
			continue
		default: // integer ALU ops and branches
			if intSlots == 0 {
				break
			}
			intSlots--
			c.c.intOps++
			c.c.intRFReads += 2
			lat := uint64(c.cfg.IntAddLat)
			switch op {
			case trace.IntMul:
				lat = uint64(c.cfg.IntMulLat)
			case trace.IntDiv:
				lat = uint64(c.cfg.IntDivLat)
				c.occupyUnit(c.intBusyUntil, c.cycle+lat)
			}
			if !op.IsBranch() {
				c.c.intRFWrites++
			}
			c.complete(e, c.cycle+lat)
			continue
		}
		// Ready, but its unit class, port or MSHRs are taken this cycle.
		next = c.cycle
		pend[kept] = p
		kept++
	}
	issued := kept < i
	if i < len(pend) { // every unit class is taken; the rest wait
		next = c.cycle
		kept += copy(pend[kept:], pend[i:])
	}
	c.npend = kept
	c.nextReady = next
	return issued
}

func (c *Core) complete(e *entry, finish uint64) {
	e.finish = finish
	c.hist[e.seq%histLen] = finish
	c.c.winIssue++
}

func (c *Core) freeUnits(busy []uint64) int {
	n := 0
	for _, b := range busy {
		if b <= c.cycle {
			n++
		}
	}
	return n
}

func (c *Core) occupyUnit(busy []uint64, until uint64) {
	for i, b := range busy {
		if b <= c.cycle {
			busy[i] = until
			return
		}
	}
}

// memLatency returns the completion latency for a memory op, or ok=false
// if it cannot start this cycle (MSHRs exhausted).
func (c *Core) memLatency(e *entry) (uint64, bool) {
	addr := e.instr.Addr
	hitLat := uint64(c.cfg.L1D.HitLatencyCycles)
	if e.instr.Op == trace.Store {
		// Stores drain through a store buffer: they update cache state and
		// complete quickly without holding an MSHR. This keeps them off
		// the critical path, as in the paper's base machine.
		if !c.l1d.Access(addr, true) {
			c.l2.Access(addr, true)
		}
		return hitLat, true
	}
	// Store-to-load forwarding: an older in-flight store to the same
	// 8-byte word satisfies the load at hit latency.
	if c.forwardFromStore(e) {
		c.l1d.Access(addr, true) // still occupies the port and warms the line
		return hitLat, true
	}
	if c.l1d.Contains(addr) {
		c.l1d.Access(addr, true)
		return hitLat, true
	}
	line := c.l1d.Line(addr)
	if ready, ok := c.dMSHR.lookup(line); ok {
		// Coalesce with the outstanding miss.
		c.l1d.Access(addr, true)
		if ready <= c.cycle {
			return hitLat, true
		}
		return ready - c.cycle + hitLat, true
	}
	if c.dMSHR.full(c.cycle) {
		return 0, false // cannot even start the miss; retry next cycle
	}
	c.l1d.Access(addr, true) // records the miss and installs the line
	var missLat uint64
	if c.l2.Access(addr, true) {
		missLat = c.l2Cycles
	} else {
		missLat = c.memCycles
	}
	c.dMSHR.add(line, c.cycle+missLat)
	return missLat + hitLat, true
}

// forwardFromStore scans the in-window stores older than load for one to
// the same 8-byte word.
func (c *Core) forwardFromStore(load *entry) bool {
	word := load.instr.Addr &^ 7
	idx := c.stqHead
	for k := 0; k < c.stqLen; k++ {
		st := &c.stq[idx]
		if st.seq >= load.seq {
			break
		}
		if st.word == word {
			return true
		}
		idx++
		if idx == len(c.stq) {
			idx = 0
		}
	}
	return false
}

// ---- Dispatch (rename) ----

// dispatch moves up to FetchWidth instructions from the fetch queue into
// the window, appending each to the issue queue (ready cycle not yet
// known) and each store to the store queue.
//
//ramp:hot
func (c *Core) dispatch() bool {
	k := 0
	for ; k < c.cfg.FetchWidth; k++ {
		if c.fqLen == 0 || c.winCount == len(c.win) {
			break
		}
		f := &c.fq[c.fqHead]
		if f.availAt > c.cycle {
			break
		}
		op := f.instr.Op
		if op.IsMem() && c.memQUsed >= c.cfg.MemQueueSize {
			break
		}
		idx := c.winHead + c.winCount
		if idx >= len(c.win) {
			idx -= len(c.win)
		}
		c.win[idx] = entry{instr: f.instr, seq: f.seq, finish: farFuture}
		c.winCount++
		p := pending{ready: farFuture, idx: int32(idx), dep1: noDep, dep2: noDep}
		if d := f.instr.Dep1; d > 0 && uint64(d) < f.seq {
			p.dep1 = uint16((f.seq - uint64(d)) % histLen)
		}
		if d := f.instr.Dep2; d > 0 && uint64(d) < f.seq {
			p.dep2 = uint16((f.seq - uint64(d)) % histLen)
		}
		check.Assert(int(max(f.instr.Dep1, f.instr.Dep2)) <= histLen-len(c.win)-c.fetchQCap,
			"sim.Core.dispatch", "dependency distance reaches a reusable history slot")
		c.pend[c.npend] = p
		c.npend++
		c.hist[f.seq%histLen] = farFuture
		if op.IsMem() {
			c.memQUsed++
			c.c.lsqOps++
		}
		if op == trace.Store {
			st := c.stqHead + c.stqLen
			if st >= len(c.stq) {
				st -= len(c.stq)
			}
			c.stq[st] = storeRef{seq: f.seq, word: f.instr.Addr &^ 7}
			c.stqLen++
		}
		c.c.winDispatch++
		c.fqHead = (c.fqHead + 1) % len(c.fq)
		c.fqLen--
	}
	return k > 0
}

// ---- Fetch ----

// fetch generates up to FetchWidth instructions directly into the fetch
// ring's tail slots. Writing through the slot pointer (rather than a
// local trace.Instr passed through the Source interface) keeps the per
// instruction generator handoff off the heap: this loop runs once per
// fetched instruction and performs zero allocations.
//
// It reports whether it fetched anything or redirected.
//
//ramp:hot
func (c *Core) fetch() bool {
	if c.cycle < c.fetchStallTo {
		return false
	}
	if c.fetchBlocked != 0 {
		fin := c.hist[c.fetchBlocked%histLen]
		if fin > c.cycle {
			return false
		}
		// Redirect: fetch resumes next cycle.
		c.fetchBlocked = 0
		c.fetchStallTo = c.cycle + 1
		return true
	}
	for k := 0; k < c.cfg.FetchWidth; k++ {
		if c.fqLen >= c.fetchQCap {
			return k > 0
		}
		slot := &c.fq[(c.fqHead+c.fqLen)%len(c.fq)]
		in := &slot.instr
		c.gen.Next(in)
		c.seq++
		slot.seq = c.seq
		slot.availAt = c.cycle + uint64(c.cfg.FrontLatency)
		// Mark the instruction in flight from fetch onwards, so a
		// mispredicted branch blocks fetch until it actually executes
		// (not until its stale history slot is consulted).
		c.hist[c.seq%histLen] = farFuture
		c.c.fetched++

		// I-cache: account one access per new line touched.
		line := c.l1i.Line(in.PC) + 1
		if line != c.lastLine {
			c.lastLine = line
			c.c.l1iAccesses++
			if !c.l1i.Access(in.PC, true) {
				var lat uint64
				il := c.l1i.Line(in.PC)
				if ready, ok := c.iMSHR.lookup(il); ok && ready > c.cycle {
					lat = ready - c.cycle
				} else if c.l2.Access(in.PC, true) {
					lat = c.l2Cycles
				} else {
					lat = c.memCycles
				}
				if !c.iMSHR.full(c.cycle) {
					c.iMSHR.add(il, c.cycle+lat)
				}
				c.fetchStallTo = c.cycle + lat
				// The missing instruction reaches rename only after the fill.
				slot.availAt = c.fetchStallTo + uint64(c.cfg.FrontLatency)
				c.fqLen++
				return true
			}
		}

		op := in.Op
		if op.IsBranch() {
			c.c.bpredAccesses++
			correct := true
			switch op {
			case trace.Branch:
				correct = c.bpred.PredictBranch(in.PC, in.Taken)
			case trace.Call:
				c.bpred.Call(in.PC + 4)
			case trace.Ret:
				correct = c.bpred.Ret(in.Target)
			}
			c.fqLen++
			if !correct {
				c.fetchBlocked = c.seq
				return true
			}
			if in.Taken {
				// Fetch group ends at a predicted-taken branch.
				return true
			}
			continue
		}
		c.fqLen++
	}
	return true
}

// ---- Stats ----

func (c *Core) snapshotDiagBases() {
	c.c = counters{
		branchLookups0: c.bpred.Lookups(),
		branchWrong0:   c.bpred.Mispredicts(),
		l1dAcc0:        c.l1d.Accesses(), l1dMiss0: c.l1d.Misses(),
		l1iAcc0: c.l1i.Accesses(), l1iMiss0: c.l1i.Misses(),
		l2Acc0: c.l2.Accesses(), l2Miss0: c.l2.Misses(),
	}
}

func (c *Core) makeResult(startCycle uint64) Result {
	cycles := c.cycle - startCycle
	if cycles == 0 {
		cycles = 1
	}
	fc := float64(cycles)
	cc := &c.c
	retired := cc.winRetire

	var r Result
	r.Cycles = cycles
	r.Retired = retired
	r.TimeSec = fc / c.cfg.FreqHz
	r.IPC = float64(retired) / fc

	iw := float64(c.cfg.IssueWidth())
	act := func(events uint64, perCycle float64) float64 {
		if perCycle <= 0 {
			return 0
		}
		a := float64(events) / (fc * perCycle)
		if a > 1 {
			a = 1
		}
		return a
	}
	r.Activity[floorplan.Fetch] = act(cc.fetched, float64(c.cfg.FetchWidth))
	r.Activity[floorplan.BPred] = act(cc.bpredAccesses, 2)
	r.Activity[floorplan.Window] = act(cc.winDispatch+cc.winIssue+cc.winRetire,
		float64(c.cfg.FetchWidth+c.cfg.RetireWidth)+iw)
	r.Activity[floorplan.IntRF] = act(cc.intRFReads+cc.intRFWrites,
		3*float64(c.cfg.IntALUs+c.cfg.AGUs))
	r.Activity[floorplan.FPRF] = act(cc.fpRFReads+cc.fpRFWrites, 3*float64(c.cfg.FPUs))
	r.Activity[floorplan.IntALU] = act(cc.intOps, float64(c.cfg.IntALUs))
	r.Activity[floorplan.AGU] = act(cc.aguOps, float64(c.cfg.AGUs))
	r.Activity[floorplan.FPU] = act(cc.fpOps, float64(c.cfg.FPUs))
	r.Activity[floorplan.LSQ] = act(cc.lsqOps, 4)
	r.Activity[floorplan.L1I] = act(cc.l1iAccesses, 2)
	r.Activity[floorplan.L1D] = act(cc.l1dAccesses, float64(c.cfg.L1D.Ports))

	lookups := c.bpred.Lookups() - cc.branchLookups0
	if lookups > 0 {
		r.BranchAccuracy = 1 - float64(c.bpred.Mispredicts()-cc.branchWrong0)/float64(lookups)
	} else {
		r.BranchAccuracy = 1
	}
	r.L1DMissRate = missRate(c.l1d.Accesses()-cc.l1dAcc0, c.l1d.Misses()-cc.l1dMiss0)
	r.L1IMissRate = missRate(c.l1i.Accesses()-cc.l1iAcc0, c.l1i.Misses()-cc.l1iMiss0)
	r.L2MissRate = missRate(c.l2.Accesses()-cc.l2Acc0, c.l2.Misses()-cc.l2Miss0)
	r.WindowOccupancy = float64(cc.occupancySum) / fc
	if retired > 0 {
		r.FPShare = float64(cc.fpRetired) / float64(retired)
	}
	return r
}

func missRate(acc, miss uint64) float64 {
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}
