package main

import (
	"encoding/json"
	"testing"
	"time"

	"ramp/internal/serve"
)

var testSpecs = map[string]ScheduleSpec{
	"serve-warm": {RatePerSec: 1000, OpenFor: 2 * time.Second, ClosedLen: 5000},
	"serve-miss": {RatePerSec: 400, OpenFor: 5 * time.Second, ClosedLen: 20000, MissEvery: 50},
}

func TestScheduleHashIsSeeded(t *testing.T) {
	for name, spec := range testSpecs {
		seen := map[string]int64{}
		for seed := int64(1); seed <= 20; seed++ {
			h := NewSchedule(seed, spec).Hash()
			if again := NewSchedule(seed, spec).Hash(); again != h {
				t.Errorf("%s seed %d: hash %s then %s", name, seed, h, again)
			}
			if prev, ok := seen[h]; ok {
				t.Errorf("%s seeds %d and %d share hash %s", name, prev, seed, h)
			}
			seen[h] = seed
		}
	}
}

func TestWarmScheduleHasNoMisses(t *testing.T) {
	s := NewSchedule(3, testSpecs["serve-warm"])
	if n := Misses(s.Open) + Misses(s.Closed); n != 0 {
		t.Fatalf("serve-warm schedule has %d misses", n)
	}
	hits := map[string]bool{}
	for _, b := range HitBodies() {
		hits[string(b.JSON)] = true
	}
	for _, b := range append(s.Open, s.Closed...) {
		if !hits[string(b.JSON)] {
			t.Fatalf("serve-warm body %s is not in the hit corpus", b.JSON)
		}
	}
	if len(HitBodies()) != 27*len(warmTquals) {
		t.Fatalf("hit corpus has %d bodies, want %d", len(HitBodies()), 27*len(warmTquals))
	}
}

func TestMissScheduleNeverRepeatsAKey(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		spec := testSpecs["serve-miss"]
		s := NewSchedule(seed, spec)
		warm := map[procKey]bool{}
		for _, b := range WarmUpBodies() {
			warm[keyOf(b.Req)] = true
		}
		seen := map[procKey]bool{}
		all := append(append([]Body(nil), s.Open...), s.Closed...)
		for _, b := range all {
			if !b.Miss {
				continue
			}
			k := keyOf(b.Req)
			if seen[k] || warm[k] {
				t.Fatalf("seed %d: miss key %+v repeats", seed, k)
			}
			seen[k] = true
		}
		for _, phase := range [][]Body{s.Open, s.Closed} {
			for lo := 0; lo+spec.MissEvery <= len(phase); lo += spec.MissEvery {
				if n := Misses(phase[lo : lo+spec.MissEvery]); n != 1 {
					t.Fatalf("seed %d: block at %d has %d misses, want 1", seed, lo, n)
				}
			}
		}
	}
}

func TestMissBodiesStayInEnvelope(t *testing.T) {
	s := NewSchedule(11, testSpecs["serve-miss"])
	for _, b := range append(s.Open, s.Closed...) {
		if err := InEnvelope(b.Req); err != nil {
			t.Fatalf("%s: %v", b.JSON, err)
		}
		var back serve.EvaluateRequest
		if err := json.Unmarshal(b.JSON, &back); err != nil || back != b.Req {
			t.Fatalf("%s does not round-trip: %+v, %v", b.JSON, back, err)
		}
	}
	for _, bad := range []serve.EvaluateRequest{
		{App: "gzip", ALUs: 1073741824},
		{App: "gzip", FPUs: 9},
		{App: "gzip", Window: 8},
		{App: "gzip", Window: 384},
		{App: "gzip", FreqHz: 6e9},
		{App: "nosuchapp"},
	} {
		if InEnvelope(bad) == nil {
			t.Errorf("InEnvelope accepted %+v", bad)
		}
	}
}
