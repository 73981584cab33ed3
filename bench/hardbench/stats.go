package main

import (
	"math"
	"runtime"
	"sort"
)

// median returns the middle of xs, the mean of the two middle values for
// an even count, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// tail returns the highest percentile that leaves ten samples above it,
// and its value: the eleventh-largest sample. With fewer than twenty
// samples it falls back to the median.
func tail(xs []float64) (p, v float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	return 100 * float64(n-10) / float64(n), sorted(xs)[n-11]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// allocMeter sums the heap allocations of the calls it measures: the
// objects and bytes allocated while each ran, by every goroutine of the
// process. The speed probe runs between the calls, so its allocations
// are left out.
type allocMeter struct {
	mallocs, bytes uint64
	ms             runtime.MemStats
}

func (m *allocMeter) measure(fn func()) {
	runtime.ReadMemStats(&m.ms)
	mallocs, bytes := m.ms.Mallocs, m.ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - mallocs
	m.bytes += m.ms.TotalAlloc - bytes
}

// normalize turns wall times into normalized times: each wall time is
// multiplied by its probe scale raised to the operation's sensitivity.
func normalize(walls, scales []float64, sensitivity float64) []float64 {
	out := make([]float64, len(walls))
	for i := range walls {
		out[i] = walls[i] * math.Pow(scales[i], sensitivity)
	}
	return out
}
