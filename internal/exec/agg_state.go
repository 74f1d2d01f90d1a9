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

	// count is the row count of COUNT(*) and COUNT, the distinct non-NULL
	// value count of COUNT(DISTINCT), and the non-NULL input count of SUM,
	// MIN and MAX, whose result is NULL while it is zero.
	count []int64
	// The running SUM, MIN or MAX of a group, in the array of the input
	// type: f64 for floats, str for strings, i64 for everything else (a bool
	// is 0 or 1, which orders like false < true).
	i64 []int64
	f64 []float64
	str []string
	// dist numbers the distinct (group id, value) pairs of COUNT(DISTINCT),
	// or the distinct values of a global aggregation, as distTypes lays
	// them out; count[g] counts group g's pairs whose value is not NULL.
	dist      *vector.KeyTable
	distTypes []vector.Type
}

// aggArrays is the aggregate state of a partial: one aggColumn per
// aggregate, all sized to the partial's group count n.
type aggArrays struct {
	cols []aggColumn
	n    int
	// COUNT(DISTINCT) scratch: a batch's group ids as a key column, and
	// the pair ids the distinct table gives its rows.
	gid     *vector.Vector
	pairIDs []int32
}

func newAggArrays(aggs []AggSpec, in []vector.Type, grouped bool) aggArrays {
	s := aggArrays{cols: make([]aggColumn, len(aggs)), gid: vector.New(vector.Int64, 0)}
	for i, a := range aggs {
		c := &s.cols[i]
		c.spec = a
		if a.Func != CountStar {
			c.typ = in[a.Col]
		}
		if a.Func == CountDistinct {
			c.distTypes = []vector.Type{c.typ}
			if grouped {
				c.distTypes = []vector.Type{vector.Int64, c.typ}
			}
			c.dist = vector.NewKeyTable(c.distTypes, 0)
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

// addDistinct adds the values of v, paired with their rows' groups, to c's
// distinct table.
func (s *aggArrays) addDistinct(c *aggColumn, v *vector.Vector, n int, ids []int32) {
	if ids == nil {
		s.addPairs(c, []*vector.Vector{v}, n)
		return
	}
	s.gid.Resize(n)
	for i, g := range ids {
		s.gid.I64[i] = int64(g)
	}
	s.addPairs(c, []*vector.Vector{s.gid, v}, n)
}

// addPairs inserts n rows of cols, laid out as c.distTypes, into c's
// distinct table and counts each new pair whose value is not NULL for its
// group.
func (s *aggArrays) addPairs(c *aggColumn, cols []*vector.Vector, n int) {
	if cap(s.pairIDs) < n {
		s.pairIDs = make([]int32, n)
	}
	ids := s.pairIDs[:n]
	next := int32(c.dist.Len())
	c.dist.InsertBatch(cols, n, ids)
	v := cols[len(cols)-1]
	for i, id := range ids {
		if id != next {
			continue
		}
		next++
		switch {
		case v.IsNull(i):
		case len(cols) == 2:
			c.count[cols[0].I64[i]]++
		default:
			c.count[0]++
		}
	}
}

// fold merges the state of a later partial into s: group g of o goes into
// group to[g] of s, which s has already grown to hold.
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
			// Re-insert the later pairs, their group ids mapped through to.
			pairs := make([]*vector.Vector, len(c.distTypes))
			for k, t := range c.distTypes {
				pairs[k] = vector.New(t, oc.dist.Len())
			}
			oc.dist.AppendKeys(pairs, 0, oc.dist.Len())
			if len(pairs) == 2 {
				for k, g := range pairs[0].I64 {
					pairs[0].I64[k] = int64(to[g])
				}
			}
			s.addPairs(c, pairs, oc.dist.Len())
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
			case c.spec.Func == CountStar || c.spec.Func == Count || c.spec.Func == CountDistinct:
				v.AppendInt64(c.count[g])
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
