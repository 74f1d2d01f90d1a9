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
	emit(out *vector.Batch, from, to int)
}

// classifyFastAgg picks, once per plan, how an aggregation's rows map to
// groups and returns the constructor of its partials. Every aggregate is
// computed in groupAgg's columnar arrays; what differs is the keyer:
//   - no group columns: every row is group 0, no keyer at all;
//   - one Int64/Date group column: an int64Keyer over vector.Int64Table
//     (with no aggregates this is DISTINCT, and a global COUNT(DISTINCT c)
//     over such a column is DISTINCT c counting its non-NULL keys);
//   - anything else: the encodeValue map keyer.
//
// DISTINCT and global COUNT(DISTINCT) over one string column keep a typed
// string set.
func classifyFastAgg(groupCols []int, aggs []AggSpec, in []vector.Type) func() aggPartial {
	countDistinct := len(groupCols) == 0 && len(aggs) == 1 && aggs[0].Func == CountDistinct
	switch {
	case countDistinct && in[aggs[0].Col] == vector.String:
		return func() aggPartial { return newValueSet(aggs[0].Col, true) }
	case len(groupCols) == 1 && len(aggs) == 0 && in[groupCols[0]] == vector.String:
		return func() aggPartial { return newValueSet(groupCols[0], false) }
	case countDistinct && isInt64Key(in[aggs[0].Col]):
		return func() aggPartial {
			k := newInt64Keyer()
			p := newGroupAgg([]int{aggs[0].Col}, nil, in, k)
			p.countOf = k
			return p
		}
	case len(groupCols) == 0:
		return func() aggPartial { return newGroupAgg(nil, aggs, in, nil) }
	case len(groupCols) == 1 && isInt64Key(in[groupCols[0]]):
		return func() aggPartial { return newGroupAgg(groupCols, aggs, in, newInt64Keyer()) }
	}
	return func() aggPartial { return newGroupAgg(groupCols, aggs, in, newMapKeyer(colTypes(groupCols, in))) }
}

func isInt64Key(t vector.Type) bool { return t == vector.Int64 || t == vector.Date }

func colTypes(cols []int, in []vector.Type) []vector.Type {
	ts := make([]vector.Type, len(cols))
	for i, c := range cols {
		ts[i] = in[c]
	}
	return ts
}

// groupAgg is the partial of every aggregation but the string sets: a
// keyer that gives each row a dense group id (nil for a global aggregation,
// whose one group is id 0) and the aggregates' columnar state indexed by
// it. Group output order is the keyer's first-occurrence order.
type groupAgg struct {
	groupCols []int
	keyTypes  []vector.Type
	keyer     groupKeyer
	state     aggArrays
	// countOf, when set, makes this a global COUNT(DISTINCT c): groupCols
	// is {c}, there are no aggregates, and the one result row is the
	// number of non-NULL keys countOf holds.
	countOf *int64Keyer

	keys []*vector.Vector // the current batch's group columns
	ids  []int32          // the current batch's group ids
}

func newGroupAgg(groupCols []int, aggs []AggSpec, in []vector.Type, keyer groupKeyer) *groupAgg {
	p := &groupAgg{
		groupCols: groupCols,
		keyTypes:  colTypes(groupCols, in),
		keyer:     keyer,
		state:     newAggArrays(aggs, in),
		keys:      make([]*vector.Vector, len(groupCols)),
	}
	if keyer == nil {
		// A global aggregation yields one row even over no input.
		p.state.grow(1)
	}
	return p
}

func (p *groupAgg) add(b *vector.Batch) {
	n := b.Len()
	if p.keyer == nil {
		p.state.update(b, n, nil)
		return
	}
	for k, c := range p.groupCols {
		p.keys[k] = b.Vecs[c]
	}
	if cap(p.ids) < n {
		p.ids = make([]int32, n)
	}
	ids := p.ids[:n]
	p.state.grow(p.keyer.assign(p.keys, n, ids))
	p.state.update(b, n, ids)
}

// merge feeds the later partial's keys, in its group order, through this
// partial's keyer, then folds its state arrays into the groups they map to.
func (p *groupAgg) merge(later aggPartial) {
	o := later.(*groupAgg)
	if p.keyer == nil {
		p.state.fold(&o.state, []int32{0})
		return
	}
	n := o.state.n
	keys := make([]*vector.Vector, len(p.keyTypes))
	for c, t := range p.keyTypes {
		keys[c] = vector.New(t, n)
	}
	o.keyer.appendKeys(keys, 0, n)
	ids := make([]int32, n)
	p.state.grow(p.keyer.assign(keys, n, ids))
	p.state.fold(&o.state, ids)
}

func (p *groupAgg) finish() int {
	if p.countOf != nil {
		return 1
	}
	return p.state.n
}

func (p *groupAgg) emit(out *vector.Batch, from, to int) {
	if p.countOf != nil {
		out.Vecs[0].AppendInt64(int64(p.countOf.table.Len()))
		return
	}
	nk := len(p.groupCols)
	if p.keyer != nil {
		p.keyer.appendKeys(out.Vecs[:nk], from, to)
	}
	p.state.emit(out.Vecs[nk:], from, to)
}

// valueSet is the partial of DISTINCT and global COUNT(DISTINCT) over one
// string column: its distinct non-NULL values and whether a NULL was seen.
// As DISTINCT it emits the NULL group first, then the values in map
// iteration order (DISTINCT promises no order); as a global COUNT(DISTINCT)
// it emits one row, the set size.
type valueSet struct {
	col     int
	count   bool
	seen    map[string]struct{}
	sawNull bool
	order   []string // emission order of the values, fixed by finish
}

func newValueSet(col int, count bool) *valueSet {
	return &valueSet{col: col, count: count, seen: make(map[string]struct{})}
}

func (s *valueSet) add(b *vector.Batch) {
	v := b.Vecs[s.col]
	vals := v.Str[:v.Len()]
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

func (s *valueSet) merge(later aggPartial) {
	o := later.(*valueSet)
	for x := range o.seen {
		s.seen[x] = struct{}{}
	}
	s.sawNull = s.sawNull || o.sawNull
}

func (s *valueSet) finish() int {
	if s.count {
		return 1
	}
	s.order = make([]string, 0, len(s.seen))
	for x := range s.seen {
		s.order = append(s.order, x)
	}
	if s.sawNull {
		return len(s.order) + 1
	}
	return len(s.order)
}

func (s *valueSet) emit(out *vector.Batch, from, to int) {
	v := out.Vecs[0]
	if s.count {
		v.AppendInt64(int64(len(s.seen)))
		return
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
		v.AppendString(x)
	}
}
