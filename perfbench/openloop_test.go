package main

import (
	"reflect"
	"testing"
	"time"
)

// TestPoissonScheduleIsSeeded checks that a seed fixes the whole schedule
// — send times, query sequence and tenants — and that the schedule has the
// offered count within the phase.
func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, pool, tenants = 100.0, 64, 3
	dur := 10 * time.Second
	a := poissonSchedule(42, rate, dur, pool, tenants)
	b := poissonSchedule(42, rate, dur, pool, tenants)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(43, rate, dur, pool, tenants); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != int(rate*dur.Seconds()) {
		t.Fatalf("%d arrivals, want %d", len(a), int(rate*dur.Seconds()))
	}
	seen := map[int]bool{}
	for i, x := range a {
		if x.at < 0 || x.at >= dur || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v: outside [0, %v) or out of order", i, x.at, dur)
		}
		if x.pool < 0 || x.pool >= pool || x.tenant < 0 || x.tenant >= tenants {
			t.Fatalf("arrival %d: pool %d tenant %d out of range", i, x.pool, x.tenant)
		}
		seen[x.tenant] = true
	}
	if len(seen) != tenants {
		t.Fatalf("only %d of %d tenants drawn", len(seen), tenants)
	}
}

func TestTagIndexRoundTrips(t *testing.T) {
	if got := tagIndex(tenantTag(2, 917)); got != 917 {
		t.Fatalf("tagIndex(tenantTag(2, 917)) = %d", got)
	}
	for _, tag := range []string{"warm/3", "t1", "t0/x", ""} {
		if got := tagIndex(tag); got != -1 {
			t.Errorf("tagIndex(%q) = %d, want -1", tag, got)
		}
	}
}
