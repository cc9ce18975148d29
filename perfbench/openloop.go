package main

import (
	"math/rand"
	"time"
)

// arrival is one scheduled submission of the open-loop generator.
type arrival struct {
	at     time.Duration // due time, from the start of the measured phase
	pool   int           // pool index of the query to send
	tenant int
}

// poissonSchedule draws a seeded Poisson arrival schedule with exactly
// round(rate*dur) arrivals in [0, dur): exponential gaps rescaled to span
// the phase, which is a Poisson process conditioned on its count. Fixing
// the count keeps the offered load identical across seeds, so seed-to-seed
// spread in qps comes from the engine, not from the draw. Each arrival
// names a uniformly drawn pool query and tenant.
func poissonSchedule(seed int64, rate float64, dur time.Duration, poolSize, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*dur.Seconds() + 0.5)
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += gaps[i]
		out[i] = arrival{
			at:     time.Duration(t / total * float64(dur)),
			pool:   rng.Intn(poolSize),
			tenant: rng.Intn(tenants),
		}
	}
	return out
}
