package exec

import (
	"math"

	"patchindex/internal/vector"
)

// groupKeyer maps the rows of a partial's key columns to dense group ids,
// numbered in order of first occurrence. That order is the partial's output
// order, and feeding a later partial's keys (in its group order) through
// the same mapping is how partials merge, so a merge of per-input partials
// in input order numbers groups exactly as one partial over the
// concatenated inputs would.
type groupKeyer interface {
	// assign sets ids[i] to the group of row i of keys (one vector per
	// group column, n rows), adding new groups in row order, and returns
	// the group count.
	assign(keys []*vector.Vector, n int, ids []int32) int
	// appendKeys appends the keys of groups [from, to) to out, one vector
	// per group column.
	appendKeys(out []*vector.Vector, from, to int)
}

// noNullGroup is int64Keyer.nullID before any NULL key.
const noNullGroup = math.MaxInt32

// int64Keyer keys one Int64 or Date column through a vector.Int64Table.
// The table numbers the non-NULL keys; the NULL key gets the group id at
// its own first occurrence, nullID, and every key the table numbered at or
// after nullID sits one group later. Groups thus follow first occurrence
// with the NULL group among them, exactly where mapKeyer puts it.
type int64Keyer struct {
	table  *vector.Int64Table
	nullID int32
	// Scratch for batches with NULLs: their non-NULL keys and table ids.
	packed []int64
	tids   []int32
}

func newInt64Keyer() *int64Keyer {
	return &int64Keyer{table: vector.NewInt64Table(0), nullID: noNullGroup}
}

func (k *int64Keyer) groups() int {
	if k.nullID == noNullGroup {
		return k.table.Len()
	}
	return k.table.Len() + 1
}

func (k *int64Keyer) assign(keys []*vector.Vector, n int, ids []int32) int {
	v := keys[0]
	if !v.HasNulls() {
		k.table.InsertBatch(v.I64[:n], ids)
		if k.nullID != noNullGroup {
			for i, t := range ids[:n] {
				if t >= k.nullID {
					ids[i] = t + 1
				}
			}
		}
		return k.groups()
	}
	k.packed = k.packed[:0]
	for i, x := range v.I64[:n] {
		if !v.Nulls[i] {
			k.packed = append(k.packed, x)
		}
	}
	if cap(k.tids) < len(k.packed) {
		k.tids = make([]int32, len(k.packed))
	}
	tids := k.tids[:len(k.packed)]
	// seen is the table's size as of row i: new keys take ids in row order.
	seen := int32(k.table.Len())
	k.table.InsertBatch(k.packed, tids)
	j := 0
	for i := 0; i < n; i++ {
		if v.Nulls[i] {
			if k.nullID == noNullGroup {
				k.nullID = seen
			}
			ids[i] = k.nullID
			continue
		}
		t := tids[j]
		j++
		if t == seen {
			seen++
		}
		if t >= k.nullID {
			t++
		}
		ids[i] = t
	}
	return k.groups()
}

func (k *int64Keyer) appendKeys(out []*vector.Vector, from, to int) {
	keys, null := k.table.Keys(), int(k.nullID)
	for g := from; g < to; g++ {
		switch {
		case g < null:
			out[0].AppendInt64(keys[g])
		case g == null:
			out[0].AppendNull()
		default:
			out[0].AppendInt64(keys[g-1])
		}
	}
}

// mapKeyer keys any group columns by their encodeValue bytes in a Go map:
// strings, floats, bools and multi-column keys. It keeps each group's key
// in columnar key vectors for output.
type mapKeyer struct {
	groups map[string]int32
	keys   []*vector.Vector
	buf    []byte
}

func newMapKeyer(types []vector.Type) *mapKeyer {
	k := &mapKeyer{groups: make(map[string]int32), keys: make([]*vector.Vector, len(types))}
	for c, t := range types {
		k.keys[c] = vector.New(t, 0)
	}
	return k
}

func (k *mapKeyer) assign(keys []*vector.Vector, n int, ids []int32) int {
	for i := 0; i < n; i++ {
		k.buf = k.buf[:0]
		for _, v := range keys {
			k.buf = encodeValue(k.buf, v, i)
		}
		g, ok := k.groups[string(k.buf)]
		if !ok {
			g = int32(len(k.groups))
			k.groups[string(k.buf)] = g
			for c, v := range keys {
				k.keys[c].Append(v, i)
			}
		}
		ids[i] = g
	}
	return len(k.groups)
}

func (k *mapKeyer) appendKeys(out []*vector.Vector, from, to int) {
	for c, v := range k.keys {
		out[c].AppendRange(v, from, to)
	}
}
