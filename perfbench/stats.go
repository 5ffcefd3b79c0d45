package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail may report, highest first. A
// fixed ladder keeps two runs with slightly different sample counts on the
// same percentile. It stops at p95: above it, a run of tens of seconds
// measures a handful of host events rather than the system, because one
// stall (an fsync or a checkpoint) delays tens of consecutive open-loop
// requests, so their samples are not independent. With p99 on the ladder,
// serve's tail ranged from 231 to 551 ms over nine runs of one build.
var tailLadder = []float64{95, 90, 75, 50}

// tailSamplesBeyond is how many samples must lie above a reported tail.
const tailSamplesBeyond = 10

// tail is a tail latency: the value at the highest ladder percentile that
// has at least tailSamplesBeyond samples above it, with that percentile and
// the sample count. With too few samples for any ladder step it reports the
// median (pct 50).
type tail struct {
	value float64
	pct   float64
	n     int
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if i := rankIndex(p, n); n-1-i >= tailSamplesBeyond {
			return tail{value: s[i], pct: p, n: n}
		}
	}
	return tail{value: median(xs), pct: 50, n: n}
}

// validName reports whether s is a legal metric or workload name: a letter
// or digit first, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
