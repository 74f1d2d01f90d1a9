package exec

import (
	"cmp"

	"patchindex/internal/vector"
)

// aggColumn is the state of one aggregate for every group of a partial, in
// arrays indexed by dense group id. Only the arrays the aggregate needs are
// allocated.
type aggColumn struct {
	spec AggSpec
	typ  vector.Type // input column type; unused for COUNT(*)

	// count is the row count of COUNT(*) and COUNT, and the non-NULL input
	// count of SUM, MIN and MAX, whose result is NULL while it is zero.
	count []int64
	// The running SUM, MIN or MAX of a group, in the array of the input
	// type: f64 for floats, str for strings, i64 for everything else (a bool
	// is 0 or 1, which orders like false < true).
	i64 []int64
	f64 []float64
	str []string
	// sets holds each group's distinct encoded values for COUNT(DISTINCT);
	// a group's set is allocated with its first non-NULL value.
	sets []map[string]struct{}
}

// aggArrays is the aggregate state of a partial: one aggColumn per
// aggregate, all sized to the partial's group count n.
type aggArrays struct {
	cols []aggColumn
	n    int
	buf  []byte // COUNT(DISTINCT) encoding scratch
}

func newAggArrays(aggs []AggSpec, in []vector.Type) aggArrays {
	s := aggArrays{cols: make([]aggColumn, len(aggs))}
	for i, a := range aggs {
		s.cols[i].spec = a
		if a.Func != CountStar {
			s.cols[i].typ = in[a.Col]
		}
	}
	return s
}

// grow extends every array to n groups; new groups start empty.
func (s *aggArrays) grow(n int) {
	d := n - s.n
	if d <= 0 {
		return
	}
	for i := range s.cols {
		c := &s.cols[i]
		c.count = append(c.count, make([]int64, d)...)
		switch c.spec.Func {
		case CountDistinct:
			c.sets = append(c.sets, make([]map[string]struct{}, d)...)
		case Sum, Min, Max:
			switch c.typ {
			case vector.Float64:
				c.f64 = append(c.f64, make([]float64, d)...)
			case vector.String:
				c.str = append(c.str, make([]string, d)...)
			default:
				c.i64 = append(c.i64, make([]int64, d)...)
			}
		}
	}
	s.n = n
}

// update folds the first n rows of b into the groups ids assigns them,
// aggregate by aggregate. ids nil means every row belongs to group 0, and
// each aggregate becomes one loop over the batch with no group lookups.
func (s *aggArrays) update(b *vector.Batch, n int, ids []int32) {
	for i := range s.cols {
		c := &s.cols[i]
		var v *vector.Vector
		var nulls []bool
		if c.spec.Func != CountStar {
			v = b.Vecs[c.spec.Col]
			if v.Nulls != nil {
				nulls = v.Nulls[:n]
			}
		}
		isMax := c.spec.Func == Max
		switch {
		case c.spec.Func == CountStar || c.spec.Func == Count:
			countRows(c.count, nulls, n, ids)
		case c.spec.Func == CountDistinct:
			s.addDistinct(c, v, n, ids)
		case c.typ == vector.Float64 && c.spec.Func == Sum:
			foldSum(c.f64, c.count, v.F64[:n], nulls, ids)
		case c.spec.Func == Sum:
			foldSum(c.i64, c.count, v.I64[:n], nulls, ids)
		case c.typ == vector.Float64:
			foldMinMax(c.f64, c.count, v.F64[:n], nulls, ids, isMax)
		case c.typ == vector.String:
			foldMinMax(c.str, c.count, v.Str[:n], nulls, ids, isMax)
		case c.typ == vector.Bool:
			x := make([]int64, n)
			for r, t := range v.B[:n] {
				if t {
					x[r] = 1
				}
			}
			foldMinMax(c.i64, c.count, x, nulls, ids, isMax)
		default:
			foldMinMax(c.i64, c.count, v.I64[:n], nulls, ids, isMax)
		}
	}
}

// countRows adds one to count[ids[i]] for every row i that is not NULL.
func countRows(count []int64, nulls []bool, n int, ids []int32) {
	if ids == nil {
		c := int64(n)
		for _, null := range nulls {
			if null {
				c--
			}
		}
		count[0] += c
		return
	}
	if nulls == nil {
		for _, g := range ids {
			count[g]++
		}
		return
	}
	for i, g := range ids {
		if !nulls[i] {
			count[g]++
		}
	}
}

// foldSum adds every non-NULL x[i] to sum[ids[i]] and counts it. The global
// loop keeps the running sum in a register but adds in row order, so float
// sums round exactly as the grouped loop's do.
func foldSum[T int64 | float64](sum []T, count []int64, x []T, nulls []bool, ids []int32) {
	if ids == nil {
		s, c := sum[0], count[0]
		for i, v := range x {
			if nulls == nil || !nulls[i] {
				s += v
				c++
			}
		}
		sum[0], count[0] = s, c
		return
	}
	for i, v := range x {
		if nulls == nil || !nulls[i] {
			g := ids[i]
			sum[g] += v
			count[g]++
		}
	}
}

// beats reports whether v replaces cur as the running MIN (or MAX). Like
// vector.Value.Compare it keeps the earlier of two equal values, and a NaN
// neither replaces nor is replaced.
func beats[T cmp.Ordered](v, cur T, isMax bool) bool {
	if isMax {
		return v > cur
	}
	return v < cur
}

// foldMinMax folds every non-NULL x[i] into the MIN (or MAX) acc[ids[i]].
func foldMinMax[T cmp.Ordered](acc []T, count []int64, x []T, nulls []bool, ids []int32, isMax bool) {
	if ids == nil {
		m, c := acc[0], count[0]
		for i, v := range x {
			if nulls == nil || !nulls[i] {
				if c == 0 || beats(v, m, isMax) {
					m = v
				}
				c++
			}
		}
		acc[0], count[0] = m, c
		return
	}
	for i, v := range x {
		if nulls == nil || !nulls[i] {
			g := ids[i]
			if count[g] == 0 || beats(v, acc[g], isMax) {
				acc[g] = v
			}
			count[g]++
		}
	}
}

// addDistinct adds the encoded non-NULL values of v to their groups' sets.
func (s *aggArrays) addDistinct(c *aggColumn, v *vector.Vector, n int, ids []int32) {
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			continue
		}
		var g int32
		if ids != nil {
			g = ids[i]
		}
		set := c.sets[g]
		if set == nil {
			set = make(map[string]struct{})
			c.sets[g] = set
		}
		s.buf = encodeValue(s.buf[:0], v, i)
		if _, seen := set[string(s.buf)]; !seen {
			set[string(s.buf)] = struct{}{}
		}
	}
}

// fold merges the state of a later partial into s: group g of o goes into
// group to[g] of s, which s has already grown to hold. o must not be used
// afterwards (its distinct sets may be adopted).
func (s *aggArrays) fold(o *aggArrays, to []int32) {
	for i := range s.cols {
		c, oc := &s.cols[i], &o.cols[i]
		isMax := c.spec.Func == Max
		switch {
		case c.spec.Func == CountStar || c.spec.Func == Count:
			for g, d := range to {
				c.count[d] += oc.count[g]
			}
		case c.spec.Func == CountDistinct:
			for g, d := range to {
				switch src := oc.sets[g]; {
				case src == nil:
				case c.sets[d] == nil:
					c.sets[d] = src
				default:
					for k := range src {
						c.sets[d][k] = struct{}{}
					}
				}
			}
		case c.typ == vector.Float64 && c.spec.Func == Sum:
			mergeSums(c.f64, c.count, oc.f64, oc.count, to)
		case c.spec.Func == Sum:
			mergeSums(c.i64, c.count, oc.i64, oc.count, to)
		case c.typ == vector.Float64:
			mergeMinMax(c.f64, c.count, oc.f64, oc.count, to, isMax)
		case c.typ == vector.String:
			mergeMinMax(c.str, c.count, oc.str, oc.count, to, isMax)
		default:
			mergeMinMax(c.i64, c.count, oc.i64, oc.count, to, isMax)
		}
	}
}

// mergeSums adds the sums and non-NULL counts of src group g to dst group
// to[g]; the count keeps a SUM over only NULLs NULL after the merge.
func mergeSums[T int64 | float64](dst []T, dstCount []int64, src []T, srcCount []int64, to []int32) {
	for g, d := range to {
		dst[d] += src[g]
		dstCount[d] += srcCount[g]
	}
}

// mergeMinMax folds the MIN (or MAX) of src group g into dst group to[g].
func mergeMinMax[T cmp.Ordered](dst []T, dstCount []int64, src []T, srcCount []int64, to []int32, isMax bool) {
	for g, d := range to {
		if srcCount[g] == 0 {
			continue
		}
		if dstCount[d] == 0 || beats(src[g], dst[d], isMax) {
			dst[d] = src[g]
		}
		dstCount[d] += srcCount[g]
	}
}

// emit appends the results of groups [from, to) to out, one vector per
// aggregate.
func (s *aggArrays) emit(out []*vector.Vector, from, to int) {
	for i := range s.cols {
		c, v := &s.cols[i], out[i]
		for g := from; g < to; g++ {
			switch {
			case c.spec.Func == CountStar || c.spec.Func == Count:
				v.AppendInt64(c.count[g])
			case c.spec.Func == CountDistinct:
				v.AppendInt64(int64(len(c.sets[g])))
			case c.count[g] == 0:
				v.AppendNull()
			case c.typ == vector.Float64:
				v.AppendFloat64(c.f64[g])
			case c.typ == vector.String:
				v.AppendString(c.str[g])
			case c.typ == vector.Bool:
				v.AppendBool(c.i64[g] != 0)
			default:
				v.AppendInt64(c.i64[g])
			}
		}
	}
}
