package exec

import "patchindex/internal/vector"

// aggPartial is one input's aggregation state. HashAgg builds one per input
// and merges them in input order. groupAgg is the engine's one
// implementation; the tests swap in a map-keyed reference through
// HashAgg.newPartial.
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

// groupAgg is the partial of every aggregation: a vector.KeyTable that
// gives each row the dense id of its group (nil for a global aggregation,
// whose one group is id 0) and the aggregates' columnar state indexed by
// it. Group output order is the table's first-insert order.
type groupAgg struct {
	groupCols []int
	keyTypes  []vector.Type
	keys      *vector.KeyTable
	state     aggArrays

	keyVecs []*vector.Vector // the current batch's group columns
	ids     []int32          // the current batch's group ids
}

func newGroupAgg(groupCols []int, aggs []AggSpec, in []vector.Type) *groupAgg {
	p := &groupAgg{
		groupCols: groupCols,
		keyTypes:  colTypes(groupCols, in),
		state:     newAggArrays(aggs, in, len(groupCols) > 0),
		keyVecs:   make([]*vector.Vector, len(groupCols)),
	}
	if len(groupCols) == 0 {
		// A global aggregation yields one row even over no input.
		p.state.grow(1)
	} else {
		p.keys = vector.NewKeyTable(p.keyTypes, 0)
	}
	return p
}

func colTypes(cols []int, in []vector.Type) []vector.Type {
	ts := make([]vector.Type, len(cols))
	for i, c := range cols {
		ts[i] = in[c]
	}
	return ts
}

func (p *groupAgg) add(b *vector.Batch) {
	n := b.Len()
	if p.keys == nil {
		p.state.update(b, n, nil)
		return
	}
	for k, c := range p.groupCols {
		p.keyVecs[k] = b.Vecs[c]
	}
	if cap(p.ids) < n {
		p.ids = make([]int32, n)
	}
	ids := p.ids[:n]
	p.keys.InsertBatch(p.keyVecs, n, ids)
	p.state.grow(p.keys.Len())
	p.state.update(b, n, ids)
}

// merge feeds the later partial's keys, in its group order, through this
// partial's table, then folds its state arrays into the groups they map to.
func (p *groupAgg) merge(later aggPartial) {
	o := later.(*groupAgg)
	if p.keys == nil {
		p.state.fold(&o.state, []int32{0})
		return
	}
	n := o.state.n
	keys := make([]*vector.Vector, len(p.keyTypes))
	for c, t := range p.keyTypes {
		keys[c] = vector.New(t, n)
	}
	o.keys.AppendKeys(keys, 0, n)
	ids := make([]int32, n)
	p.keys.InsertBatch(keys, n, ids)
	p.state.grow(p.keys.Len())
	p.state.fold(&o.state, ids)
}

func (p *groupAgg) finish() int { return p.state.n }

func (p *groupAgg) emit(out *vector.Batch, from, to int) {
	nk := len(p.groupCols)
	if p.keys != nil {
		p.keys.AppendKeys(out.Vecs[:nk], from, to)
	}
	p.state.emit(out.Vecs[nk:], from, to)
}
