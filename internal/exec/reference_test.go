package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// The merge and sort code as it stood before the typed tail, kept as the
// oracle the differential tests compare against: MergeUnion found each run's
// end one row at a time through compareRowsAcross, and sortPermutation sorted
// row indices through a comparator closure. The aggregation and hash join
// references key rows through encodeValue bytes in Go maps.

// refMergeUnion is the row-by-row MergeUnion.
type refMergeUnion struct {
	opStats
	children []Operator
	keys     []SortKey
	types    []vector.Type

	cursors []*refUnionCursor
	heap    []int
	out     *vector.Batch
}

type refUnionCursor struct {
	op    Operator
	batch *vector.Batch
	pos   int
	eof   bool
}

func (c *refUnionCursor) fill() error {
	for !c.eof && (c.batch == nil || c.pos >= c.batch.Len()) {
		b, err := c.op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			c.eof = true
			return nil
		}
		if b.Len() == 0 {
			continue
		}
		c.batch, c.pos = b, 0
	}
	return nil
}

func newRefMergeUnion(keys []SortKey, children ...Operator) *refMergeUnion {
	return &refMergeUnion{children: children, keys: keys, types: children[0].Types()}
}

func (m *refMergeUnion) Name() string         { return fmt.Sprintf("RefMergeUnion(%d)", len(m.children)) }
func (m *refMergeUnion) Types() []vector.Type { return m.types }
func (m *refMergeUnion) Children() []Operator { return m.children }

func (m *refMergeUnion) Open(ctx context.Context) error {
	m.bindCtx(ctx)
	start := time.Now()
	defer m.stats.AddTime(start)
	m.cursors = m.cursors[:0]
	m.heap = m.heap[:0]
	for _, c := range m.children {
		if err := c.Open(ctx); err != nil {
			return err
		}
		m.cursors = append(m.cursors, &refUnionCursor{op: c})
	}
	for ci, c := range m.cursors {
		if err := c.fill(); err != nil {
			return errOp(m, err)
		}
		if !c.eof {
			m.heap = append(m.heap, ci)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.out = vector.NewBatch(m.types)
	return nil
}

func (m *refMergeUnion) cursorLess(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	return compareRowsAcross(ca.batch.Vecs, ca.pos, cb.batch.Vecs, cb.pos, m.keys) < 0
}

func (m *refMergeUnion) siftDown(i int) {
	n := len(m.heap)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && m.cursorLess(m.heap[child+1], m.heap[child]) {
			child++
		}
		if !m.cursorLess(m.heap[child], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[child] = m.heap[child], m.heap[i]
		i = child
	}
}

func (m *refMergeUnion) Next() (*vector.Batch, error) {
	out := m.out
	out.Reset()
	for out.Len() < vector.BatchSize && len(m.heap) > 0 {
		best := m.cursors[m.heap[0]]
		second := -1
		if len(m.heap) > 1 {
			second = m.heap[1]
			if len(m.heap) > 2 && m.cursorLess(m.heap[2], m.heap[1]) {
				second = m.heap[2]
			}
		}
		limit := best.batch.Len()
		if room := vector.BatchSize - out.Len(); best.pos+room < limit {
			limit = best.pos + room
		}
		end := best.pos + 1
		if second >= 0 {
			sc := m.cursors[second]
			for end < limit &&
				compareRowsAcross(best.batch.Vecs, end, sc.batch.Vecs, sc.pos, m.keys) <= 0 {
				end++
			}
		} else {
			end = limit
		}
		for col := range m.types {
			out.Vecs[col].AppendRange(best.batch.Vecs[col], best.pos, end)
		}
		best.pos = end
		if best.pos >= best.batch.Len() {
			if err := best.fill(); err != nil {
				return nil, errOp(m, err)
			}
		}
		if best.eof {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		if len(m.heap) > 0 {
			m.siftDown(0)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

func (m *refMergeUnion) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refSortPermutation is the closure-based sortPermutation: the generic
// path's oracle. The typed path's oracle is a stable sort (stablePermutation).
func refSortPermutation(cols []*vector.Vector, n int, keys []SortKey) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	quicksort(idx, func(a, b int) bool { return compareRows(cols, keys, a, b) < 0 })
	return idx
}

// refPatchSelect is PatchSelect's batch step as it stood before the
// per-batch patch offsets, kept as the oracle FuzzPatchSelect compares
// against: exclude mode asked the patch pointer about every row of a batch
// holding a patch and copied the runs between patches one AppendRange at a
// time; use mode advanced the pointer one patch at a time and gathered the
// patch rows run by run.
type refPatchSelect struct {
	mode   SelectMode
	it     *patch.Iter
	out    *vector.Batch
	keep   []int
	probes int64
	hits   int64
}

// runRefPatchSelect drains child through refPatchSelect, with PatchSelect's
// use-mode early exit, and returns the output rows and the probe and hit
// counts.
func runRefPatchSelect(child Operator, set patch.Set, mode SelectMode) ([][]vector.Value, int64, int64, error) {
	if err := child.Open(context.Background()); err != nil {
		return nil, 0, 0, err
	}
	defer child.Close()
	p := &refPatchSelect{mode: mode, it: set.Iter(0), out: vector.NewBatch(child.Types())}
	var rows [][]vector.Value
	for {
		if p.mode == UsePatches && !p.it.Valid() {
			return rows, p.probes, p.hits, nil
		}
		b, err := child.Next()
		if err != nil || b == nil {
			return rows, p.probes, p.hits, err
		}
		n, base := b.Len(), b.BaseRow
		p.probes += int64(n)
		p.it.Seek(base)
		if out := p.applyMerge(b, base, n); out != nil {
			for i := 0; i < out.Len(); i++ {
				rows = append(rows, out.Row(i))
			}
		}
	}
}

func (p *refPatchSelect) applyMerge(b *vector.Batch, base uint64, n int) *vector.Batch {
	switch p.mode {
	case ExcludePatches:
		if !p.it.Valid() || p.it.Row() >= base+uint64(n) {
			return b
		}
		p.out.Reset()
		runStart := 0
		for i := 0; i < n; i++ {
			row := base + uint64(i)
			if p.it.Valid() && p.it.Row() == row {
				appendRun(p.out, b, runStart, i)
				runStart = i + 1
				p.hits++
				p.it.Next()
			}
		}
		appendRun(p.out, b, runStart, n)
		return p.out
	case UsePatches:
		keep := p.keep[:0]
		for p.it.Valid() {
			row := p.it.Row()
			if row >= base+uint64(n) {
				break
			}
			keep = append(keep, int(row-base))
			p.it.Next()
		}
		p.hits += int64(len(keep))
		p.keep = keep
		if len(keep) == 0 {
			return nil
		}
		p.out.Reset()
		gatherInto(p.out, b, keep)
		return p.out
	}
	return nil
}

// The join kernels as they stood before the typed int64 paths, kept as the
// oracle FuzzJoin compares against. refMergeJoin compared and advanced one
// boxed row at a time, checked sortedness through Vector.Compare and copied
// the left row once per matched right row; refHashJoin built a
// map[int64][]int32 (Int64/Date keys) or a map[string][]int and appended
// every joined row column by column.

// refMergeJoin is the row-at-a-time MergeJoin.
type refMergeJoin struct {
	left, right       Operator
	leftKey, rightKey int
	lc, rc            *refMergeCursor
	lGroup, rGroup    []*vector.Vector
	lN, rN            int
	emitL, emitR      int
	emitting          bool
	streaming         bool
	streamKey         vector.Value
	out               *vector.Batch
}

// runRefMergeJoin drains refMergeJoin over left and right into rows.
func runRefMergeJoin(left, right Operator, leftKey, rightKey int) ([][]vector.Value, error) {
	ctx := context.Background()
	if err := left.Open(ctx); err != nil {
		return nil, err
	}
	defer left.Close()
	if err := right.Open(ctx); err != nil {
		return nil, err
	}
	defer right.Close()
	j := &refMergeJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey,
		lc: &refMergeCursor{op: left, key: leftKey}, rc: &refMergeCursor{op: right, key: rightKey},
		lGroup: makeGroupBuf(left.Types()), rGroup: makeGroupBuf(right.Types()),
		out: vector.NewBatch(append(append([]vector.Type{}, left.Types()...), right.Types()...))}
	var rows [][]vector.Value
	for {
		b, err := j.next()
		if err != nil || b == nil {
			return rows, err
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

func (j *refMergeJoin) next() (*vector.Batch, error) {
	j.out.Reset()
	nLeft := len(j.left.Types())
	for {
		if j.emitting {
			for j.out.Len() < vector.BatchSize && j.emitL < j.lN {
				for c := 0; c < nLeft; c++ {
					j.out.Vecs[c].Append(j.lGroup[c], j.emitL)
				}
				for c := 0; c < len(j.rGroup); c++ {
					j.out.Vecs[nLeft+c].Append(j.rGroup[c], j.emitR)
				}
				j.emitR++
				if j.emitR >= j.rN {
					j.emitR = 0
					j.emitL++
				}
			}
			if j.emitL >= j.lN {
				j.emitting = false
			}
			if j.out.Len() >= vector.BatchSize {
				return j.out, nil
			}
			continue
		}
		if j.streaming {
			done, err := j.streamRight(nLeft)
			if err != nil {
				return nil, err
			}
			if done {
				j.streaming = false
			}
			if j.out.Len() >= vector.BatchSize {
				return j.out, nil
			}
			continue
		}
		lv, li, ok, err := j.lc.peek()
		if err != nil {
			return nil, err
		}
		if !ok {
			return j.flush()
		}
		rv, ri, ok, err := j.rc.peek()
		if err != nil {
			return nil, err
		}
		if !ok {
			return j.flush()
		}
		cmp := lv.Vecs[j.leftKey].Compare(li, rv.Vecs[j.rightKey], ri)
		switch {
		case cmp < 0:
			j.lc.pos++
		case cmp > 0:
			j.rc.pos++
		default:
			ln, err := j.lc.takeGroup(j.lGroup)
			if err != nil {
				return nil, err
			}
			j.lN = ln
			if ln == 1 {
				j.streamKey = j.lGroup[j.leftKey].Value(0)
				j.streaming = true
				continue
			}
			rn, err := j.rc.takeGroup(j.rGroup)
			if err != nil {
				return nil, err
			}
			j.rN = rn
			j.emitL, j.emitR = 0, 0
			j.emitting = true
		}
	}
}

func (j *refMergeJoin) flush() (*vector.Batch, error) {
	if j.out.Len() > 0 {
		return j.out, nil
	}
	return nil, nil
}

func (j *refMergeJoin) streamRight(nLeft int) (bool, error) {
	for j.out.Len() < vector.BatchSize {
		b, i, ok, err := j.rc.peek()
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		kv := b.Vecs[j.rightKey]
		end := i
		limit := b.Len()
		if room := vector.BatchSize - j.out.Len(); limit > i+room {
			limit = i + room
		}
		if (kv.Typ == vector.Int64 || kv.Typ == vector.Date) && !j.streamKey.Null {
			sk := j.streamKey.I64
			for end < limit && !kv.IsNull(end) && kv.I64[end] == sk {
				end++
			}
		} else {
			for end < limit && !kv.IsNull(end) && kv.Value(end).Equal(j.streamKey) {
				end++
			}
		}
		if end == i {
			if kv.IsNull(i) {
				j.rc.pos++
				continue
			}
			return true, nil
		}
		for c := 0; c < nLeft; c++ {
			lg := j.lGroup[c]
			for k := i; k < end; k++ {
				j.out.Vecs[c].Append(lg, 0)
			}
		}
		for c := range b.Vecs {
			j.out.Vecs[nLeft+c].AppendRange(b.Vecs[c], i, end)
		}
		j.rc.pos = end
	}
	return false, nil
}

type refMergeCursor struct {
	op      Operator
	key     int
	batch   *vector.Batch
	pos     int
	eof     bool
	prevKey vector.Value
	hasPrev bool
}

func (c *refMergeCursor) peek() (*vector.Batch, int, bool, error) {
	for {
		if c.eof {
			return nil, 0, false, nil
		}
		if c.batch == nil || c.pos >= c.batch.Len() {
			b, err := c.op.Next()
			if err != nil {
				return nil, 0, false, err
			}
			if b == nil {
				c.eof = true
				return nil, 0, false, nil
			}
			if b.Len() == 0 {
				continue
			}
			if err := c.validate(b); err != nil {
				return nil, 0, false, err
			}
			c.batch, c.pos = b, 0
		}
		kv := c.batch.Vecs[c.key]
		if kv.IsNull(c.pos) {
			c.pos++
			continue
		}
		return c.batch, c.pos, true, nil
	}
}

func (c *refMergeCursor) validate(b *vector.Batch) error {
	kv := b.Vecs[c.key]
	n := kv.Len()
	prev := -1
	for i := 0; i < n; i++ {
		if kv.IsNull(i) {
			continue
		}
		if prev >= 0 {
			if kv.Compare(prev, kv, i) > 0 {
				return fmt.Errorf("merge join input not sorted within batch at row %d", i)
			}
		} else if c.hasPrev {
			if c.prevKey.Compare(kv.Value(i)) > 0 {
				return fmt.Errorf("merge join input not sorted across batches: %v after %v", kv.Value(i), c.prevKey)
			}
		}
		prev = i
	}
	if prev >= 0 {
		c.prevKey, c.hasPrev = kv.Value(prev), true
	}
	return nil
}

func (c *refMergeCursor) takeGroup(group []*vector.Vector) (int, error) {
	b, i, ok, err := c.peek()
	if err != nil || !ok {
		return 0, err
	}
	for _, v := range group {
		v.Reset()
	}
	keyVal := b.Vecs[c.key].Value(i)
	n := 0
	for {
		b, i, ok, err = c.peek()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if !b.Vecs[c.key].Value(i).Equal(keyVal) {
			break
		}
		for ci := range group {
			group[ci].Append(b.Vecs[ci], i)
		}
		n++
		c.pos++
	}
	return n, nil
}

// runRefHashJoin is the in-memory HashJoin build and probe: it
// materialises the build side row by row, builds the map, and probes every
// row of the other side, appending each joined (or, for a left outer join,
// NULL-padded) row. Outer joins build on the right.
func runRefHashJoin(left, right Operator, leftKey, rightKey int, buildLeft, leftOuter bool) ([][]vector.Value, error) {
	ctx := context.Background()
	build, probe := right, left
	buildKey, probeKey := rightKey, leftKey
	if buildLeft && !leftOuter {
		build, probe = left, right
		buildKey, probeKey = leftKey, rightKey
	}
	if err := build.Open(ctx); err != nil {
		return nil, err
	}
	defer build.Close()
	cols := makeGroupBuf(build.Types())
	for {
		b, err := build.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for c := range cols {
			for i := 0; i < b.Len(); i++ {
				cols[c].Append(b.Vecs[c], i)
			}
		}
	}
	n := cols[0].Len()
	keyVec := cols[buildKey]
	var table map[string][]int
	var table64 map[int64][]int32
	if keyVec.Typ == vector.Int64 || keyVec.Typ == vector.Date {
		table64 = make(map[int64][]int32, n)
		for i := 0; i < n; i++ {
			if keyVec.IsNull(i) {
				continue
			}
			table64[keyVec.I64[i]] = append(table64[keyVec.I64[i]], int32(i))
		}
	} else {
		table = make(map[string][]int, n)
		var buf []byte
		for i := 0; i < n; i++ {
			if keyVec.IsNull(i) {
				continue
			}
			buf = encodeValue(buf[:0], keyVec, i)
			table[string(buf)] = append(table[string(buf)], i)
		}
	}

	if err := probe.Open(ctx); err != nil {
		return nil, err
	}
	defer probe.Close()
	nLeft := len(left.Types())
	out := vector.NewBatch(append(append([]vector.Type{}, left.Types()...), right.Types()...))
	appendJoined := func(pb *vector.Batch, pi, bi int) {
		if build == left {
			for c := 0; c < nLeft; c++ {
				out.Vecs[c].Append(cols[c], bi)
			}
			for c := range pb.Vecs {
				out.Vecs[nLeft+c].Append(pb.Vecs[c], pi)
			}
		} else {
			for c := range pb.Vecs {
				out.Vecs[c].Append(pb.Vecs[c], pi)
			}
			for c := range cols {
				out.Vecs[nLeft+c].Append(cols[c], bi)
			}
		}
	}
	appendUnmatched := func(pb *vector.Batch, pi int) {
		if !leftOuter {
			return
		}
		for c := range pb.Vecs {
			out.Vecs[c].Append(pb.Vecs[c], pi)
		}
		for c := nLeft; c < len(out.Vecs); c++ {
			out.Vecs[c].AppendNull()
		}
	}
	var buf []byte
	for {
		b, err := probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		pk := b.Vecs[probeKey]
		for i := 0; i < b.Len(); i++ {
			if pk.IsNull(i) {
				appendUnmatched(b, i)
				continue
			}
			if table64 != nil {
				rows := table64[pk.I64[i]]
				if len(rows) == 0 {
					appendUnmatched(b, i)
				}
				for _, bi := range rows {
					appendJoined(b, i, int(bi))
				}
				continue
			}
			buf = encodeValue(buf[:0], pk, i)
			rows, ok := table[string(buf)]
			if !ok {
				appendUnmatched(b, i)
			}
			for _, bi := range rows {
				appendJoined(b, i, bi)
			}
		}
	}
	rows := make([][]vector.Value, out.Len())
	for i := range rows {
		rows[i] = out.Row(i)
	}
	return rows, nil
}

// encodeValue appends a canonical, type-tagged binary encoding of value i of
// v to buf: a type tag (plus a length for strings, so composite keys stay
// unambiguous) followed by the value's bytes. Encodings are injective per
// type except that -0.0 and +0.0, equal under =, share one; NULL encodes as
// a dedicated tag. Group, distinct and join keys were found by putting these
// bytes in Go maps before vector.KeyTable; the maps below are the oracle.
func encodeValue(buf []byte, v *vector.Vector, i int) []byte {
	if v.IsNull(i) {
		return append(buf, 0)
	}
	switch v.Typ {
	case vector.Int64, vector.Date:
		buf = binary.LittleEndian.AppendUint64(append(buf, 1), uint64(v.I64[i]))
	case vector.Float64:
		buf = binary.LittleEndian.AppendUint64(append(buf, 2), vector.Float64KeyBits(v.F64[i]))
	case vector.String:
		buf = binary.LittleEndian.AppendUint32(append(buf, 3), uint32(len(v.Str[i])))
		buf = append(buf, v.Str[i]...)
	case vector.Bool:
		if v.B[i] {
			buf = append(buf, 4, 1)
		} else {
			buf = append(buf, 4, 0)
		}
	}
	return buf
}

// mapKeyer keys any group columns by their encodeValue bytes in a Go map,
// numbering groups in first-occurrence order, and keeps each group's key in
// columnar key vectors for output.
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

// assign sets ids[i] to the group of row i of keys, adding new groups in
// row order, and returns the group count.
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

// refPartial is the aggregation partial as it stood before vector.KeyTable:
// groups keyed by mapKeyer, each COUNT(DISTINCT) counted in a map of
// encoded values per group, and the other aggregates in aggArrays.
type refPartial struct {
	groupCols []int
	keyTypes  []vector.Type
	keyer     *mapKeyer // nil for a global aggregation
	aggs      []AggSpec
	state     aggArrays               // every aggregate but COUNT(DISTINCT)
	sets      [][]map[string]struct{} // sets[a][g]: the values aggs[a] counts for group g
	n         int
}

// genericPartial returns the constructor of the reference partial for an
// aggregation.
func genericPartial(groupCols []int, aggs []AggSpec, in []vector.Type) func() aggPartial {
	return func() aggPartial {
		var plain []AggSpec
		for _, a := range aggs {
			if a.Func != CountDistinct {
				plain = append(plain, a)
			}
		}
		p := &refPartial{
			groupCols: groupCols, keyTypes: colTypes(groupCols, in), aggs: aggs,
			state: newAggArrays(plain, in, len(groupCols) > 0),
			sets:  make([][]map[string]struct{}, len(aggs)),
		}
		if len(groupCols) > 0 {
			p.keyer = newMapKeyer(p.keyTypes)
		} else {
			p.grow(1)
		}
		return p
	}
}

func (p *refPartial) grow(n int) {
	p.state.grow(n)
	for a, spec := range p.aggs {
		for spec.Func == CountDistinct && len(p.sets[a]) < n {
			p.sets[a] = append(p.sets[a], map[string]struct{}{})
		}
	}
	p.n = max(p.n, n)
}

func (p *refPartial) add(b *vector.Batch) {
	n := b.Len()
	ids := make([]int32, n) // all group 0 in a global aggregation
	if p.keyer != nil {
		keys := make([]*vector.Vector, len(p.groupCols))
		for k, c := range p.groupCols {
			keys[k] = b.Vecs[c]
		}
		p.grow(p.keyer.assign(keys, n, ids))
		p.state.update(b, n, ids)
	} else {
		p.state.update(b, n, nil)
	}
	for a, spec := range p.aggs {
		if spec.Func != CountDistinct {
			continue
		}
		v := b.Vecs[spec.Col]
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				p.sets[a][ids[i]][string(encodeValue(nil, v, i))] = struct{}{}
			}
		}
	}
}

func (p *refPartial) merge(later aggPartial) {
	o := later.(*refPartial)
	to := []int32{0}
	if p.keyer != nil {
		keys := make([]*vector.Vector, len(p.keyTypes))
		for c, t := range p.keyTypes {
			keys[c] = vector.New(t, o.n)
		}
		o.keyer.appendKeys(keys, 0, o.n)
		to = make([]int32, o.n)
		p.grow(p.keyer.assign(keys, o.n, to))
	}
	p.state.fold(&o.state, to)
	for a := range p.aggs {
		for g, set := range o.sets[a] {
			for k := range set {
				p.sets[a][to[g]][k] = struct{}{}
			}
		}
	}
}

func (p *refPartial) finish() int { return p.n }

func (p *refPartial) emit(out *vector.Batch, from, to int) {
	nk := len(p.groupCols)
	if p.keyer != nil {
		p.keyer.appendKeys(out.Vecs[:nk], from, to)
	}
	var plain []*vector.Vector
	for a, spec := range p.aggs {
		v := out.Vecs[nk+a]
		if spec.Func != CountDistinct {
			plain = append(plain, v)
			continue
		}
		for g := from; g < to; g++ {
			v.AppendInt64(int64(len(p.sets[a][g])))
		}
	}
	p.state.emit(plain, from, to)
}
