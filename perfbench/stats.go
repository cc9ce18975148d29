package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows is how many consecutive windows a measured phase is cut into.
const windows = 10

// unit is one request of a measured phase: a batch in the closed loop (n
// queries, all due when it is sent), one query in the open loop.
type unit struct {
	due, done time.Time
	n, ok     int64 // queries, and queries answered correctly
	good      int64 // correct answers within the goodput limit
}

// fillEndToEnd fills qps, goodput_qps and the latency quantiles from the
// phase's units, in the order they were sent. Each is computed per window;
// the throughputs report the upper quartile over windows and the latencies
// the lower quartile. Interference from other tenants of a shared host only
// slows a window down and comes in stretches of seconds to minutes, so the
// faster quarter of the windows follows the program while still resting on
// several windows: over eight 45 s stretches of one strings-recurring run on
// a shared 2-vCPU host, one of them hit by interference, latency_p90_ms
// spread 7.4% this way, 8.1% as the median over windows and 14.1% pooled
// over the whole phase. It returns the number of latency samples (correct
// queries).
func fillEndToEnd(units []unit, vals map[string]float64) int64 {
	var qps, goodput, p50, p90 []float64
	var samples int64
	for w := 0; w < windows; w++ {
		win := units[w*len(units)/windows : (w+1)*len(units)/windows]
		if len(win) == 0 {
			continue
		}
		var ok, good int64
		var lat []float64
		first, last := win[0].due, win[0].done
		for _, u := range win {
			if u.due.Before(first) {
				first = u.due
			}
			if u.done.After(last) {
				last = u.done
			}
			ok += u.ok
			good += u.good
			if u.ok > 0 {
				lat = append(lat, ms(u.done.Sub(u.due)))
			}
		}
		samples += ok
		span := last.Sub(first).Seconds()
		qps = append(qps, ratio(float64(ok), span))
		goodput = append(goodput, ratio(float64(good), span))
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	vals["qps"] = quantile(qps, 0.75)
	vals["goodput_qps"] = quantile(goodput, 0.75)
	vals["latency_p50_ms"] = quantile(p50, 0.25)
	vals["latency_p90_ms"] = quantile(p90, 0.25)
	return samples
}

// heapSampler records Go heap-in-use while it runs, reading runtime/metrics
// (no stop-the-world) every period, and keeps the highest value of each
// second.
type heapSampler struct {
	peaks []float64 // per-second maxima, MiB
	stop  chan struct{}
	wg    sync.WaitGroup
}

// heapInUseSamples sum to the runtime/metrics equivalent of
// MemStats.HeapInuse.
var heapInUseSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func readHeapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var sum uint64
	for i := range s {
		sum += s[i].Value.Uint64()
	}
	return sum
}

// startHeapSampler starts sampling; stop it with Stop.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := make([]metrics.Sample, len(heapInUseSamples))
	for i, n := range heapInUseSamples {
		s[i].Name = n
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		peak, since := readHeapInUse(s), time.Now()
		for {
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				return
			case <-t.C:
				if v := readHeapInUse(s); v > peak {
					peak = v
				}
				if time.Since(since) >= time.Second {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
					peak, since = 0, time.Now()
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median over seconds of each second's
// peak heap-in-use, in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return quantile(h.peaks, 0.5)
}

// memDelta is the runtime.MemStats difference over a measured phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     b.NumGC - a.NumGC,
		pause:   time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}
