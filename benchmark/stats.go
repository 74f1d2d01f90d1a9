package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is what every timing is reported as: median, quartiles, and the
// highest percentile that still has at least ten samples beyond it.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct"` // e.g. 99.9; 0 when fewer than 20 samples
	Tail    float64 `json:"tail"`
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		if float64(len(s))*(100-p)/100 >= 10 {
			out.TailPct, out.Tail = p, quantile(s, p/100)
			break
		}
	}
	return out
}

func median(vals []float64) float64 { return summarize(vals).Median }

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the bounds are compared against.
func spread(vals []float64) float64 {
	s := summarize(vals)
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
