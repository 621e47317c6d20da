package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ramp/internal/config"
	"ramp/internal/serve"
	"ramp/internal/trace"
)

// The calibrated envelope: the microarchitecture and DVS range the
// model's adaptation spaces span (config.ArchConfigs and
// config.DVSFrequencies). Every miss configuration is drawn inside it.
const (
	minWindow, maxWindow = 16, 128
	minALUs, maxALUs     = 2, 6
	minFPUs, maxFPUs     = 1, 4
	freqGridHz           = 10e6
)

// warmPoints are the three operating points every application is
// warmed at: the base machine, a DVS point and a smaller Arch point.
var warmPoints = []serve.EvaluateRequest{
	{},
	{FreqHz: 3e9},
	{Window: 64, ALUs: 4, FPUs: 2},
}

// warmTquals are the qualification temperatures the timed phases
// request over the warm points.
var warmTquals = []float64{325, 345, 360, 370, 400}

// Body is one request of a schedule: its JSON encoding, the request it
// encodes and whether it names a configuration never requested before.
type Body struct {
	Req  serve.EvaluateRequest
	JSON []byte
	Miss bool
}

// procKey identifies an (app, configuration) point the way the exp
// cache does, with every override spelled out.
type procKey struct {
	app                string
	window, alus, fpus int
	freqHz             float64
}

func keyOf(r serve.EvaluateRequest) procKey {
	base := config.Base()
	k := procKey{app: r.App, window: base.WindowSize, alus: base.IntALUs, fpus: base.FPUs, freqHz: base.FreqHz}
	if r.Window != 0 {
		k.window = r.Window
	}
	if r.ALUs != 0 {
		k.alus = r.ALUs
	}
	if r.FPUs != 0 {
		k.fpus = r.FPUs
	}
	if r.FreqHz != 0 {
		k.freqHz = r.FreqHz
	}
	return k
}

// InEnvelope reports whether a request stays inside the calibrated
// envelope.
func InEnvelope(r serve.EvaluateRequest) error {
	k := keyOf(r)
	switch {
	case k.window < minWindow || k.window > maxWindow:
		return fmt.Errorf("window %d outside [%d, %d]", k.window, minWindow, maxWindow)
	case k.alus < minALUs || k.alus > maxALUs:
		return fmt.Errorf("alus %d outside [%d, %d]", k.alus, minALUs, maxALUs)
	case k.fpus < minFPUs || k.fpus > maxFPUs:
		return fmt.Errorf("fpus %d outside [%d, %d]", k.fpus, minFPUs, maxFPUs)
	case k.freqHz < config.MinFreqHz || k.freqHz > config.MaxFreqHz:
		return fmt.Errorf("freq_hz %g outside [%g, %g]", k.freqHz, float64(config.MinFreqHz), float64(config.MaxFreqHz))
	}
	if _, err := trace.AppByName(r.App); err != nil {
		return err
	}
	return nil
}

func encode(r serve.EvaluateRequest, miss bool) Body {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers and a string always marshals
	}
	return Body{Req: r, JSON: b, Miss: miss}
}

// WarmUpBodies are the set-up requests: one per (app, warm point), at
// the server's default qualification temperature.
func WarmUpBodies() []Body {
	var out []Body
	for _, app := range trace.Apps() {
		for _, p := range warmPoints {
			p.App = app.Name
			out = append(out, encode(p, false))
		}
	}
	return out
}

// HitBodies are the timed phases' cache hits: every warm point at every
// warm qualification temperature.
func HitBodies() []Body {
	var out []Body
	for _, b := range WarmUpBodies() {
		for _, tq := range warmTquals {
			r := b.Req
			r.TqualK = tq
			out = append(out, encode(r, false))
		}
	}
	return out
}

// missSource draws fresh miss configurations. Draws are stratified so
// that every run, whatever its seed, simulates a like mix of costs:
// each block of nine draws visits every application once, and the
// window walks eight equal strata of the envelope in turn.
type missSource struct {
	rng  *rand.Rand
	seen map[procKey]bool
	apps []trace.Profile
	perm []int
	n    int
}

func newMissSource(rng *rand.Rand) *missSource {
	m := &missSource{rng: rng, seen: make(map[procKey]bool), apps: trace.Apps()}
	for _, b := range WarmUpBodies() {
		m.seen[keyOf(b.Req)] = true
	}
	return m
}

func (m *missSource) next() Body {
	const strata = 8
	width := (maxWindow - minWindow + 1 + strata - 1) / strata
	for {
		if m.n%len(m.apps) == 0 {
			m.perm = m.rng.Perm(len(m.apps))
		}
		app := m.apps[m.perm[m.n%len(m.apps)]]
		lo := minWindow + (m.n%strata)*width
		hi := min(lo+width-1, maxWindow)
		steps := int((config.MaxFreqHz - config.MinFreqHz) / freqGridHz)
		r := serve.EvaluateRequest{
			App:    app.Name,
			Window: lo + m.rng.Intn(hi-lo+1),
			ALUs:   minALUs + m.rng.Intn(maxALUs-minALUs+1),
			FPUs:   minFPUs + m.rng.Intn(maxFPUs-minFPUs+1),
			FreqHz: config.MinFreqHz + float64(m.rng.Intn(steps+1))*freqGridHz,
			TqualK: warmTquals[m.rng.Intn(len(warmTquals))],
		}
		m.n++
		k := keyOf(r)
		if m.seen[k] {
			continue
		}
		m.seen[k] = true
		return encode(r, true)
	}
}

// Schedule is one workload's seeded request plan: an open-loop phase of
// arrivals at fixed offsets and a closed-loop phase that walks Closed
// in order.
type Schedule struct {
	Due    []time.Duration // open-loop arrival offsets, ascending
	Open   []Body          // Open[i] is sent at Due[i]
	Closed []Body
}

// ScheduleSpec sizes a schedule.
type ScheduleSpec struct {
	RatePerSec float64       // open-loop Poisson arrival rate
	OpenFor    time.Duration // open-loop phase length
	ClosedLen  int           // closed-loop sequence length
	MissEvery  int           // one miss per block of this many requests; 0 = none
}

// NewSchedule builds the schedule for seed: Poisson arrivals over the
// hit corpus, with a fresh miss as every MissEvery-th request. Fixed
// miss positions space the misses like the sum of MissEvery Poisson
// gaps, so how often two misses overlap — which sets the hit tail —
// varies little between seeds. No miss key repeats within the schedule
// or matches a warm key.
func NewSchedule(seed int64, spec ScheduleSpec) Schedule {
	rng := rand.New(rand.NewSource(seed))
	hits := HitBodies()
	misses := newMissSource(rng)
	pick := func(n int) []Body {
		out := make([]Body, n)
		for i := range out {
			if spec.MissEvery > 0 && i%spec.MissEvery == spec.MissEvery-1 {
				out[i] = misses.next()
			} else {
				out[i] = hits[rng.Intn(len(hits))]
			}
		}
		return out
	}
	var s Schedule
	mean := float64(time.Second) / spec.RatePerSec
	for t := time.Duration(rng.ExpFloat64() * mean); t < spec.OpenFor; t += time.Duration(rng.ExpFloat64() * mean) {
		s.Due = append(s.Due, t)
	}
	s.Open = pick(len(s.Due))
	s.Closed = pick(spec.ClosedLen)
	return s
}

// Misses counts the miss bodies in bs.
func Misses(bs []Body) int {
	n := 0
	for _, b := range bs {
		if b.Miss {
			n++
		}
	}
	return n
}

// Hash fingerprints the schedule: every due time and every body, in
// order.
func (s Schedule) Hash() string {
	h := sha256.New()
	put := func(b []byte) { _, _ = h.Write(b) } // a hash.Hash's Write never fails
	var buf [8]byte
	for _, d := range s.Due {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		put(buf[:])
	}
	for _, phase := range [][]Body{s.Open, s.Closed} {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(phase)))
		put(buf[:])
		for _, b := range phase {
			put(b.JSON)
			put([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
