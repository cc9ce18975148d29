package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("batch", 0, -1, at(0), at(100))
	tr.add("compile", 0, root, at(0), at(10))
	run := tr.add("run", 0, root, at(20), at(90))
	tr.add("inner", 0, run, at(30), at(40))
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"batch":   20 * time.Millisecond, // 100 - 10 - 70
		"compile": 10 * time.Millisecond,
		"run":     60 * time.Millisecond,
		"inner":   10 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("%s: self %v, want %v", name, self[name], d)
		}
	}
}

// TestEndToEndIsFastQuarterOfWindows checks that slow windows — stretches
// of interference — do not move the reported figures as long as a quarter
// of the windows runs undisturbed.
func TestEndToEndIsFastQuarterOfWindows(t *testing.T) {
	t0 := time.Now()
	var units []unit
	at := t0
	for i := 0; i < 10*windows; i++ {
		wall := 10 * time.Millisecond
		if i < 60 { // the first six windows run 10x slower
			wall *= 10
		}
		units = append(units, unit{due: at, done: at.Add(wall), n: 4, ok: 4, good: 4})
		at = at.Add(wall)
	}
	vals := map[string]float64{}
	if got := fillEndToEnd(units, vals); got != int64(4*len(units)) {
		t.Fatalf("%d latency samples, want %d", got, 4*len(units))
	}
	want := map[string]float64{"qps": 400, "goodput_qps": 400, "latency_p50_ms": 10, "latency_p90_ms": 10}
	for k, v := range want {
		if d := vals[k] - v; d > 1e-6*v || d < -1e-6*v {
			t.Errorf("%s = %v, want %v", k, vals[k], v)
		}
	}
}
