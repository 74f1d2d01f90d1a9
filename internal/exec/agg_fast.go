package exec

import "patchindex/internal/vector"

// aggPartial is one input's aggregation state. HashAgg builds one per input
// and merges them in input order.
type aggPartial interface {
	// add folds one input batch into the state.
	add(b *vector.Batch)
	// merge folds the partial of a later input into this one; the later
	// partial, of the same implementation, must not be used afterwards.
	merge(later aggPartial)
	// finish completes the state and returns the number of result rows.
	finish() int
	// emit appends result rows [from, to) to out.
	emit(out *vector.Batch, from, to int) error
}

// classifyFastAgg picks the partial implementation of an aggregation and
// returns its constructor. The shapes that dominate the evaluation
// workloads — DISTINCT over one int64/date or string column, and a global
// COUNT(DISTINCT c) over one — get a typed value set; everything else the
// generic byte-encoding hash table.
func classifyFastAgg(groupCols []int, aggs []AggSpec, in []vector.Type) func() aggPartial {
	col, count := -1, false
	switch {
	case len(groupCols) == 1 && len(aggs) == 0:
		col = groupCols[0]
	case len(groupCols) == 0 && len(aggs) == 1 && aggs[0].Func == CountDistinct:
		col, count = aggs[0].Col, true
	}
	if col >= 0 {
		switch in[col] {
		case vector.Int64, vector.Date:
			return func() aggPartial {
				return newValueSet(col, count, func(v *vector.Vector) []int64 { return v.I64 }, (*vector.Vector).AppendInt64)
			}
		case vector.String:
			return func() aggPartial {
				return newValueSet(col, count, func(v *vector.Vector) []string { return v.Str }, (*vector.Vector).AppendString)
			}
		}
	}
	return func() aggPartial { return newAggBuilder(groupCols, aggs, in) }
}

// valueSet is the partial of the typed fast paths: the distinct non-NULL
// values of one int64/date or string column, and whether a NULL was seen.
// As DISTINCT it emits the NULL group first, then the values in map
// iteration order (DISTINCT promises no order); as a global COUNT(DISTINCT)
// it emits one row, the set size.
type valueSet[T int64 | string] struct {
	col     int
	count   bool
	vals    func(*vector.Vector) []T
	put     func(*vector.Vector, T)
	seen    map[T]struct{}
	sawNull bool
	order   []T // emission order of the values, fixed by finish
}

func newValueSet[T int64 | string](col int, count bool, vals func(*vector.Vector) []T, put func(*vector.Vector, T)) *valueSet[T] {
	return &valueSet[T]{col: col, count: count, vals: vals, put: put, seen: make(map[T]struct{})}
}

func (s *valueSet[T]) add(b *vector.Batch) {
	v := b.Vecs[s.col]
	vals := s.vals(v)[:v.Len()]
	if v.Nulls == nil {
		for _, x := range vals {
			s.seen[x] = struct{}{}
		}
		return
	}
	for i, x := range vals {
		if v.Nulls[i] {
			s.sawNull = true
			continue
		}
		s.seen[x] = struct{}{}
	}
}

func (s *valueSet[T]) merge(later aggPartial) {
	o := later.(*valueSet[T])
	for x := range o.seen {
		s.seen[x] = struct{}{}
	}
	s.sawNull = s.sawNull || o.sawNull
}

func (s *valueSet[T]) finish() int {
	if s.count {
		return 1
	}
	s.order = make([]T, 0, len(s.seen))
	for x := range s.seen {
		s.order = append(s.order, x)
	}
	if s.sawNull {
		return len(s.order) + 1
	}
	return len(s.order)
}

func (s *valueSet[T]) emit(out *vector.Batch, from, to int) error {
	v := out.Vecs[0]
	if s.count {
		v.AppendInt64(int64(len(s.seen)))
		return nil
	}
	if s.sawNull {
		// The NULL group is row 0; value i is row i+1.
		if from == 0 {
			v.AppendNull()
			from++
		}
		from, to = from-1, to-1
	}
	for _, x := range s.order[from:to] {
		s.put(v, x)
	}
	return nil
}
