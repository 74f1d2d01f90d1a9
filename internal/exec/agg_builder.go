package exec

import (
	"fmt"

	"patchindex/internal/vector"
)

// aggBuilder is the generic partial: grouped aggregate state keyed by the
// byte encoding of the group columns. Group output order is hash-table
// insertion order — first occurrence in the consumed stream — which merge
// preserves, so one build over concatenated partitions and a merge of
// per-partition builders in the same partition order produce identical
// group sequences.
type aggBuilder struct {
	groupCols []int
	aggs      []AggSpec
	in        []vector.Type

	groups map[string]int
	// encs holds the encoded key of each group in insertion order, so merging
	// another builder needs no re-encoding.
	encs   []string
	keys   [][]vector.Value
	states []*aggState

	keyBuf, elemBuf []byte
}

func newAggBuilder(groupCols []int, aggs []AggSpec, in []vector.Type) *aggBuilder {
	return &aggBuilder{
		groupCols: groupCols,
		aggs:      aggs,
		in:        in,
		groups:    make(map[string]int),
	}
}

// add folds one input batch into the group states.
func (ab *aggBuilder) add(b *vector.Batch) {
	n := b.Len()
	for i := 0; i < n; i++ {
		ab.keyBuf = ab.keyBuf[:0]
		for _, c := range ab.groupCols {
			ab.keyBuf = encodeValue(ab.keyBuf, b.Vecs[c], i)
		}
		gi, ok := ab.groups[string(ab.keyBuf)]
		if !ok {
			gi = len(ab.keys)
			enc := string(ab.keyBuf)
			ab.groups[enc] = gi
			ab.encs = append(ab.encs, enc)
			key := make([]vector.Value, len(ab.groupCols))
			for k, c := range ab.groupCols {
				key[k] = b.Vecs[c].Value(i)
			}
			ab.keys = append(ab.keys, key)
			ab.states = append(ab.states, newAggState(ab.aggs, ab.in))
		}
		st := ab.states[gi]
		for ai, a := range ab.aggs {
			switch a.Func {
			case CountStar:
				st.counts[ai]++
			case Count:
				if !b.Vecs[a.Col].IsNull(i) {
					st.counts[ai]++
				}
			case CountDistinct:
				if !b.Vecs[a.Col].IsNull(i) {
					ab.elemBuf = encodeValue(ab.elemBuf[:0], b.Vecs[a.Col], i)
					if _, seen := st.distinct[ai][string(ab.elemBuf)]; !seen {
						st.distinct[ai][string(ab.elemBuf)] = struct{}{}
					}
				}
			case Sum:
				v := b.Vecs[a.Col]
				if !v.IsNull(i) {
					st.counts[ai]++
					if v.Typ == vector.Float64 {
						st.sumsF[ai] += v.F64[i]
					} else {
						st.sumsI[ai] += v.I64[i]
					}
				}
			case Min:
				v := b.Vecs[a.Col]
				if !v.IsNull(i) {
					val := v.Value(i)
					if st.minmax[ai].Null || val.Compare(st.minmax[ai]) < 0 {
						st.minmax[ai] = val
					}
				}
			case Max:
				v := b.Vecs[a.Col]
				if !v.IsNull(i) {
					val := v.Value(i)
					if st.minmax[ai].Null || val.Compare(st.minmax[ai]) > 0 {
						st.minmax[ai] = val
					}
				}
			}
		}
	}
}

// merge folds a later builder's groups into ab, preserving its insertion
// order for groups ab has not seen. The later builder must not be used
// afterwards (its states may be adopted).
func (ab *aggBuilder) merge(later aggPartial) {
	o := later.(*aggBuilder)
	for gi, enc := range o.encs {
		di, ok := ab.groups[enc]
		if !ok {
			di = len(ab.keys)
			ab.groups[enc] = di
			ab.encs = append(ab.encs, enc)
			ab.keys = append(ab.keys, o.keys[gi])
			ab.states = append(ab.states, o.states[gi])
			continue
		}
		mergeAggState(ab.states[di], o.states[gi], ab.aggs)
	}
}

// mergeAggState combines the partial state src into dst, per aggregate.
func mergeAggState(dst, src *aggState, aggs []AggSpec) {
	for ai, a := range aggs {
		switch a.Func {
		case CountStar, Count:
			dst.counts[ai] += src.counts[ai]
		case CountDistinct:
			for k := range src.distinct[ai] {
				dst.distinct[ai][k] = struct{}{}
			}
		case Sum:
			// counts tracks the non-NULL count so SUM-over-no-rows stays NULL
			// after a merge of all-NULL partials.
			dst.counts[ai] += src.counts[ai]
			dst.sumsI[ai] += src.sumsI[ai]
			dst.sumsF[ai] += src.sumsF[ai]
		case Min:
			if !src.minmax[ai].Null &&
				(dst.minmax[ai].Null || src.minmax[ai].Compare(dst.minmax[ai]) < 0) {
				dst.minmax[ai] = src.minmax[ai]
			}
		case Max:
			if !src.minmax[ai].Null &&
				(dst.minmax[ai].Null || src.minmax[ai].Compare(dst.minmax[ai]) > 0) {
				dst.minmax[ai] = src.minmax[ai]
			}
		}
	}
}

// finish returns the number of result rows. Global aggregation over zero
// rows still yields one row.
func (ab *aggBuilder) finish() int {
	if len(ab.groupCols) == 0 && len(ab.keys) == 0 {
		ab.keys = append(ab.keys, nil)
		ab.states = append(ab.states, newAggState(ab.aggs, ab.in))
	}
	return len(ab.keys)
}

// emit appends result rows [from, to) to out: group columns, then one
// column per aggregate.
func (ab *aggBuilder) emit(out *vector.Batch, from, to int) error {
	for g := from; g < to; g++ {
		col := 0
		for k := range ab.groupCols {
			if err := out.Vecs[col].AppendValue(ab.keys[g][k]); err != nil {
				return err
			}
			col++
		}
		st := ab.states[g]
		for ai, a := range ab.aggs {
			switch a.Func {
			case CountStar, Count:
				out.Vecs[col].AppendInt64(st.counts[ai])
			case CountDistinct:
				out.Vecs[col].AppendInt64(int64(len(st.distinct[ai])))
			case Sum:
				if st.counts[ai] == 0 {
					out.Vecs[col].AppendNull()
				} else if ab.in[a.Col] == vector.Float64 {
					out.Vecs[col].AppendFloat64(st.sumsF[ai])
				} else {
					out.Vecs[col].AppendInt64(st.sumsI[ai])
				}
			case Min, Max:
				if err := out.Vecs[col].AppendValue(st.minmax[ai]); err != nil {
					return err
				}
			}
			col++
		}
	}
	return nil
}

// aggOutputTypes validates group columns and aggregate specs against the
// input schema and returns the output column types.
func aggOutputTypes(groupCols []int, aggs []AggSpec, in []vector.Type) ([]vector.Type, error) {
	if len(groupCols) == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("exec: hash aggregation needs group columns or aggregates")
	}
	var types []vector.Type
	for _, c := range groupCols {
		if c < 0 || c >= len(in) {
			return nil, fmt.Errorf("exec: group column %d out of range", c)
		}
		types = append(types, in[c])
	}
	for _, a := range aggs {
		if a.Func != CountStar && (a.Col < 0 || a.Col >= len(in)) {
			return nil, fmt.Errorf("exec: aggregate column %d out of range", a.Col)
		}
		types = append(types, a.ResultType(in))
	}
	return types, nil
}
