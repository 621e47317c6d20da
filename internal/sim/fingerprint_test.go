package sim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ramp/internal/config"
	"ramp/internal/trace"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.golden")

// fingerprintPath holds one line per (app, window, ALUs, FPUs, clock)
// case: the case key and a hash of every Result field of every epoch.
var fingerprintPath = filepath.Join("testdata", "fingerprint.golden")

// fingerprintProc builds the machine a rampserve override resolves to:
// the base processor with the window (and the register files and memory
// queue that scale with it) and unit counts replaced, at the given clock.
func fingerprintProc(window, alus, fpus int, freqHz float64) config.Proc {
	base := config.Base()
	p := base
	p.WindowSize = window
	p.IntRegs = min(base.IntRegs, window+window/2)
	p.FPRegs = min(base.FPRegs, window+window/2)
	p.MemQueueSize = min(base.MemQueueSize, window)
	p.IntALUs = alus
	p.FPUs = fpus
	return p.WithOperatingPoint(freqHz)
}

// hashResult folds every field of r into h, floats by their bit pattern,
// so any drift in any statistic — even in the last ulp — changes the hash.
func hashResult(h hash.Hash64, r Result) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.Cycles)
	put(r.Retired)
	put(math.Float64bits(r.TimeSec))
	put(math.Float64bits(r.IPC))
	for _, a := range r.Activity {
		put(math.Float64bits(a))
	}
	for _, v := range [...]float64{r.BranchAccuracy, r.L1DMissRate, r.L1IMissRate,
		r.L2MissRate, r.WindowOccupancy, r.FPShare} {
		put(math.Float64bits(v))
	}
}

// fingerprintCases simulates every workload profile on the corners of
// the calibrated envelope (window 16–128, 2–6 ALUs, 1–4 FPUs, 2.5–5 GHz)
// and returns one "key hash" line per case. Each case runs four epochs
// and switches the clock to the other DVS corner between the second and
// third, so the hash also covers state carried across epochs and across
// an operating-point change.
func fingerprintCases(t *testing.T) []string {
	freqs := [...]float64{config.MinFreqHz, config.MaxFreqHz}
	var lines []string
	for _, app := range trace.Apps() {
		for _, w := range [...]int{16, 48, 128} {
			for _, alus := range [...]int{2, 6} {
				for _, fpus := range [...]int{1, 4} {
					for fi, f := range freqs {
						c := mustNew(fingerprintProc(w, alus, fpus, f), mustNewGenerator(t, app, 5))
						h := fnv.New64a()
						hashResult(h, c.Run(3_000))
						hashResult(h, c.Run(5_000))
						other := freqs[1-fi]
						c.SetOperatingPoint(other, config.VoltageForFreq(other))
						hashResult(h, c.Run(5_000))
						hashResult(h, c.Run(5_000))
						lines = append(lines, fmt.Sprintf("%s w%d a%d f%d %.1fGHz %016x",
							app.Name, w, alus, fpus, f/1e9, h.Sum64()))
					}
				}
			}
		}
	}
	return lines
}

// TestFingerprint pins the simulator's every output statistic across the
// whole override envelope against hashes produced before the issue stage
// became event-driven: a faster timing model must be bit-identical, not
// merely close. Refresh (only for an intended model change) with
//
//	go test ./internal/sim -run TestFingerprint -update
func TestFingerprint(t *testing.T) {
	got := fingerprintCases(t)
	if *updateFingerprint {
		if err := os.WriteFile(fingerprintPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d cases)", fingerprintPath, len(got))
		return
	}
	raw, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
