package exec

import (
	"context"
	"fmt"
	"slices"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// HashJoin is an equi-join on a single key column per side. The build side
// is configurable: the paper's join rewrite picks the side with the lower
// estimated cardinality to build the hash table on. With leftOuter set the
// join keeps unmatched left rows, padding the right columns with NULLs (the
// build side is then forced to the right input).
//
// The hash table maps each distinct non-NULL build key to a dense id:
// through a vector.Int64Table for Int64/Date keys, through a map keyed by
// encodeValue bytes for the other types. The build rows of id k are
// rows[start[k]:start[k+1]], in build order, laid out by counting rows per
// id and then filling one array. A probe batch looks all its keys up at
// once and gathers each output column over the matched (probe, build) row
// pairs.
type HashJoin struct {
	opStats
	left, right Operator
	leftKey     int
	rightKey    int
	buildLeft   bool
	leftOuter   bool
	types       []vector.Type
	spill       SpillConfig

	buildCols []*vector.Vector
	ints      *vector.Int64Table
	strs      map[string]int32
	start     []int32
	rows      []int32
	probe     Operator
	probeKey  int
	out       *vector.Batch
	keyBuf    []byte
	ids       []int32 // build id per probe row of the current batch, -1 for none
	probeIdx  []int   // matched (probe row, build row) pairs of the current batch
	buildIdx  []int
	buildRows int64

	// Grace mode (build side exceeded spill.Limit): both sides hash-
	// partitioned to disk, partitions joined one at a time.
	grace        bool
	graceBuild   []*spillRun
	graceProbe   []*spillRun
	gracePart    int
	graceCur     *spillRun
	graceBatch   *vector.Batch
	buildKey     int
	spilledBytes int64
	// graceParts is the partition count, kept for ExtraStats after Close
	// has released graceBuild.
	graceParts int64
}

// checkJoinKeys validates the key positions of a join of inputs typed lt
// and rt, and that the two keys are of one type (vector.KeyCompatible): the
// kernels compare keys without conversion.
func checkJoinKeys(op string, lt, rt []vector.Type, leftKey, rightKey int) error {
	if leftKey < 0 || leftKey >= len(lt) {
		return fmt.Errorf("exec: %s: left key %d out of range", op, leftKey)
	}
	if rightKey < 0 || rightKey >= len(rt) {
		return fmt.Errorf("exec: %s: right key %d out of range", op, rightKey)
	}
	if !vector.KeyCompatible(lt[leftKey], rt[rightKey]) {
		return fmt.Errorf("exec: %s: key types %s and %s differ", op, lt[leftKey], rt[rightKey])
	}
	return nil
}

// NewHashJoin creates an inner hash join of left and right on
// left.leftKey = right.rightKey. If buildLeft is true the hash table is
// built on the left input, otherwise on the right. Output columns are the
// left columns followed by the right columns.
func NewHashJoin(left, right Operator, leftKey, rightKey int, buildLeft bool) (*HashJoin, error) {
	lt, rt := left.Types(), right.Types()
	if err := checkJoinKeys("hash join", lt, rt, leftKey, rightKey); err != nil {
		return nil, err
	}
	types := append(append([]vector.Type{}, lt...), rt...)
	return &HashJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey, buildLeft: buildLeft, types: types}, nil
}

// NewLeftOuterHashJoin creates a left outer hash join (build side: right).
func NewLeftOuterHashJoin(left, right Operator, leftKey, rightKey int) (*HashJoin, error) {
	j, err := NewHashJoin(left, right, leftKey, rightKey, false)
	if err != nil {
		return nil, err
	}
	j.leftOuter = true
	return j, nil
}

// SetSpill bounds the build side's in-memory size: past cfg.Limit bytes the
// join switches to Grace hash partitioning, spilling both sides to cfg.Dir
// and joining partition pairs one at a time.
func (j *HashJoin) SetSpill(cfg SpillConfig) { j.spill = cfg }

// Name returns the operator name.
func (j *HashJoin) Name() string {
	side := "build=right"
	if j.buildLeft {
		side = "build=left"
	}
	if j.leftOuter {
		return "LeftOuterHashJoin(" + side + ")"
	}
	return "HashJoin(" + side + ")"
}

// Types returns left column types followed by right column types.
func (j *HashJoin) Types() []vector.Type { return j.types }

// Children returns both inputs, left first.
func (j *HashJoin) Children() []Operator { return []Operator{j.left, j.right} }

// ExtraStats reports the hash-table build size and Grace spill activity.
func (j *HashJoin) ExtraStats() []obs.KV {
	kv := []obs.KV{{Key: "build_rows", Value: j.buildRows}}
	if j.grace {
		kv = append(kv,
			obs.KV{Key: "grace_partitions", Value: j.graceParts},
			obs.KV{Key: "spilled_bytes", Value: j.spilledBytes})
	}
	return kv
}

// Open builds the hash table on the configured side. A cancelled context
// aborts the build through the build child's Next.
func (j *HashJoin) Open(ctx context.Context) error {
	j.bindCtx(ctx)
	return j.openTimed(func() error { return j.open(ctx) })
}

func (j *HashJoin) open(ctx context.Context) error {
	var build Operator
	if j.buildLeft {
		build, j.probe = j.left, j.right
		j.buildKey, j.probeKey = j.leftKey, j.rightKey
	} else {
		build, j.probe = j.right, j.left
		j.buildKey, j.probeKey = j.rightKey, j.leftKey
	}
	if err := build.Open(ctx); err != nil {
		return err
	}
	// Materialize the build side, watching the byte budget: crossing it
	// flips to Grace partitioning with the rows gathered so far.
	types := build.Types()
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, vector.BatchSize)
	}
	var bytes int64
	overflow := false
	for {
		b, err := build.Next()
		if err != nil {
			return errOp(j, err)
		}
		if b == nil {
			break
		}
		bl := b.Len()
		for c := range cols {
			cols[c].AppendRange(b.Vecs[c], 0, bl)
			bytes += b.Vecs[c].RowsByteSize(bl)
		}
		if j.spill.enabled() && bytes > j.spill.Limit {
			overflow = true
			break
		}
	}
	if overflow {
		return j.openGrace(ctx, build, cols)
	}
	n := cols[0].Len()
	j.buildCols = cols
	j.buildRows = int64(n)
	j.buildHashTable(cols, n)
	j.out = vector.NewBatch(j.types)
	return j.probe.Open(ctx)
}

// buildHashTable (re)builds the probe table over the given build rows.
func (j *HashJoin) buildHashTable(cols []*vector.Vector, n int) {
	keyVec := cols[j.buildKey]
	ids := make([]int32, n)
	var distinct int
	j.ints, j.strs = nil, nil
	if keyVec.Typ == vector.Int64 || keyVec.Typ == vector.Date {
		j.ints = vector.NewInt64Table(n)
		j.ints.InsertBatch(keyVec.I64[:n], ids)
		distinct = j.ints.Len()
	} else {
		j.strs = make(map[string]int32, n)
		for i := range ids {
			j.keyBuf = encodeValue(j.keyBuf[:0], keyVec, i)
			id, ok := j.strs[string(j.keyBuf)]
			if !ok {
				id = int32(len(j.strs))
				j.strs[string(j.keyBuf)] = id
			}
			ids[i] = id
		}
		distinct = len(j.strs)
	}
	maskNullKeys(keyVec, ids)
	j.start = make([]int32, distinct+1)
	for _, id := range ids {
		if id >= 0 {
			j.start[id+1]++
		}
	}
	for k := 1; k <= distinct; k++ {
		j.start[k] += j.start[k-1]
	}
	j.rows = make([]int32, j.start[distinct])
	fill := slices.Clone(j.start[:distinct])
	for i, id := range ids {
		if id >= 0 {
			j.rows[fill[id]] = int32(i)
			fill[id]++
		}
	}
}

// maskNullKeys sets ids[i] to -1 wherever key i is NULL: NULL keys never
// join. A NULL row's key slot was still hashed on the build side, so its id
// may hold no rows, which the probe treats as a miss.
func maskNullKeys(keyVec *vector.Vector, ids []int32) {
	if keyVec.Nulls == nil {
		return
	}
	for i := range ids {
		if keyVec.Nulls[i] {
			ids[i] = -1
		}
	}
}

// gracePartitions is the Grace fan-out. With the build side just over the
// limit each partition is ~1/16 of it; a partition that still exceeds the
// limit is processed in memory regardless (no recursive repartitioning).
const gracePartitions = 16

// gracePartitioner hash-routes rows into per-partition spill files.
type gracePartitioner struct {
	files []*spillFile
	stage [][]*vector.Vector
	key   int
	buf   []byte
}

func newGracePartitioner(dir string, types []vector.Type, key int) (*gracePartitioner, error) {
	g := &gracePartitioner{key: key}
	for p := 0; p < gracePartitions; p++ {
		f, err := newSpillFile(dir)
		if err != nil {
			g.discard()
			return nil, err
		}
		g.files = append(g.files, f)
		cols := make([]*vector.Vector, len(types))
		for i, t := range types {
			cols[i] = vector.New(t, vector.BatchSize)
		}
		g.stage = append(g.stage, cols)
	}
	return g, nil
}

// add routes rows [0,n) of cols. dropNullKeys skips NULL-key rows (safe
// whenever those rows can never appear in the output).
func (g *gracePartitioner) add(cols []*vector.Vector, n int, dropNullKeys bool) error {
	keyVec := cols[g.key]
	for i := 0; i < n; i++ {
		if dropNullKeys && keyVec.IsNull(i) {
			continue
		}
		p := spillHash(keyVec, i, &g.buf, gracePartitions)
		st := g.stage[p]
		for c := range st {
			st[c].Append(cols[c], i)
		}
		if st[0].Len() >= vector.BatchSize {
			if err := g.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *gracePartitioner) flush(p int) error {
	if err := g.files[p].writeCols(g.stage[p]); err != nil {
		return err
	}
	for _, v := range g.stage[p] {
		v.Reset()
	}
	return nil
}

// finish flushes all staging buffers and returns per-partition runs.
func (g *gracePartitioner) finish() ([]*spillRun, int64, error) {
	runs := make([]*spillRun, len(g.files))
	var bytes int64
	for p := range g.files {
		if err := g.flush(p); err != nil {
			g.discard()
			return nil, 0, err
		}
		r, err := g.files[p].finish()
		if err != nil {
			g.discard()
			for _, rr := range runs {
				rr.close()
			}
			return nil, 0, err
		}
		g.files[p] = nil
		runs[p] = r
		bytes += r.bytes
	}
	return runs, bytes, nil
}

func (g *gracePartitioner) discard() {
	for _, f := range g.files {
		if f != nil {
			f.discard()
		}
	}
}

// openGrace partitions the build side (prefix already materialized in acc,
// remainder still streaming) and then the whole probe side to disk.
func (j *HashJoin) openGrace(ctx context.Context, build Operator, acc []*vector.Vector) error {
	gp, err := newGracePartitioner(j.spill.Dir, build.Types(), j.buildKey)
	if err != nil {
		return errOp(j, err)
	}
	if err := gp.add(acc, acc[0].Len(), true); err != nil {
		gp.discard()
		return errOp(j, err)
	}
	j.buildRows = int64(acc[0].Len())
	for {
		b, err := build.Next()
		if err != nil {
			gp.discard()
			return errOp(j, err)
		}
		if b == nil {
			break
		}
		if err := gp.add(b.Vecs, b.Len(), true); err != nil {
			gp.discard()
			return errOp(j, err)
		}
		j.buildRows += int64(b.Len())
	}
	var bBytes int64
	j.graceBuild, bBytes, err = gp.finish()
	if err != nil {
		return errOp(j, err)
	}
	j.graceParts = int64(len(j.graceBuild))
	if err := j.probe.Open(ctx); err != nil {
		j.closeGrace()
		return err
	}
	pp, err := newGracePartitioner(j.spill.Dir, j.probe.Types(), j.probeKey)
	if err != nil {
		j.closeGrace()
		return errOp(j, err)
	}
	for {
		b, err := j.probe.Next()
		if err != nil {
			pp.discard()
			j.closeGrace()
			return errOp(j, err)
		}
		if b == nil {
			break
		}
		// Inner joins drop unmatched probe rows anyway, so NULL-key rows can
		// be dropped here; a left outer join must keep them to pad them.
		if err := pp.add(b.Vecs, b.Len(), !j.leftOuter); err != nil {
			pp.discard()
			j.closeGrace()
			return errOp(j, err)
		}
	}
	var pBytes int64
	j.graceProbe, pBytes, err = pp.finish()
	if err != nil {
		j.closeGrace()
		return errOp(j, err)
	}
	j.spilledBytes = bBytes + pBytes
	j.grace = true
	j.gracePart = -1
	j.graceBatch = &vector.Batch{}
	j.out = vector.NewBatch(j.types)
	return nil
}

// loadGracePartition reads build partition p into memory, builds its hash
// table, and positions the probe cursor on probe partition p.
func (j *HashJoin) loadGracePartition(p int) error {
	types := make([]vector.Type, 0, len(j.types))
	if j.buildLeft {
		types = append(types, j.left.Types()...)
	} else {
		types = append(types, j.right.Types()...)
	}
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, vector.BatchSize)
	}
	for {
		frame, err := j.graceBuild[p].next()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		for c := range cols {
			cols[c].AppendRange(frame[c], 0, frame[c].Len())
		}
	}
	j.graceBuild[p].close()
	j.buildCols = cols
	j.buildHashTable(cols, cols[0].Len())
	j.graceCur = j.graceProbe[p]
	return nil
}

// nextProbeBatch returns the next probe-side batch: straight from the probe
// child normally, from the current Grace partition's spill run otherwise
// (advancing through partitions as they drain).
func (j *HashJoin) nextProbeBatch() (*vector.Batch, error) {
	if !j.grace {
		return j.probe.Next()
	}
	for {
		if j.graceCur != nil {
			frame, err := j.graceCur.next()
			if err != nil {
				return nil, err
			}
			if frame != nil {
				j.graceBatch.Vecs = frame
				j.graceBatch.Sel = nil
				j.graceBatch.Contiguous = false
				return j.graceBatch, nil
			}
			j.graceCur.close()
			j.graceCur = nil
		}
		j.gracePart++
		if j.gracePart >= len(j.graceBuild) {
			return nil, nil
		}
		if err := j.loadGracePartition(j.gracePart); err != nil {
			return nil, err
		}
	}
}

// closeGrace releases all Grace spill runs.
func (j *HashJoin) closeGrace() {
	for _, r := range j.graceBuild {
		r.close()
	}
	for _, r := range j.graceProbe {
		r.close()
	}
	j.graceBuild, j.graceProbe, j.graceCur = nil, nil, nil
}

// Next probes the hash table with the next probe-side batch.
func (j *HashJoin) Next() (*vector.Batch, error) {
	return j.nextBatch(j.next)
}

func (j *HashJoin) next() (*vector.Batch, error) {
	for {
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, errOp(j, err)
		}
		if b == nil {
			return nil, nil
		}
		j.out.Reset()
		pi, bi := j.probeIdx[:0], j.buildIdx[:0]
		for i, id := range j.lookup(b.Vecs[j.probeKey], b.Len()) {
			if id >= 0 && j.start[id] < j.start[id+1] {
				for _, r := range j.rows[j.start[id]:j.start[id+1]] {
					pi = append(pi, i)
					bi = append(bi, int(r))
				}
			} else if j.leftOuter {
				// Emit the pairs so far first, keeping probe order.
				j.emitPairs(b, pi, bi)
				pi, bi = pi[:0], bi[:0]
				j.appendUnmatched(b, i)
			}
		}
		j.emitPairs(b, pi, bi)
		j.probeIdx, j.buildIdx = pi, bi
		if j.out.Len() > 0 {
			return j.out, nil
		}
	}
}

// lookup returns the build id of each of the n probe keys in keyVec, -1
// where the key is NULL or has no id. The slice is reused per batch.
func (j *HashJoin) lookup(keyVec *vector.Vector, n int) []int32 {
	ids := slices.Grow(j.ids[:0], n)[:n]
	if j.ints != nil {
		j.ints.LookupBatch(keyVec.I64[:n], ids)
	} else {
		for i := range ids {
			j.keyBuf = encodeValue(j.keyBuf[:0], keyVec, i)
			id, ok := j.strs[string(j.keyBuf)]
			if !ok {
				id = -1
			}
			ids[i] = id
		}
	}
	maskNullKeys(keyVec, ids)
	j.ids = ids
	return ids
}

// emitPairs appends the joined rows of the (probe row pi[k], build row
// bi[k]) pairs to the output, one Gather per column.
func (j *HashJoin) emitPairs(probe *vector.Batch, pi, bi []int) {
	if len(pi) == 0 {
		return
	}
	probeAt, buildAt := 0, len(j.left.Types())
	if j.buildLeft {
		probeAt, buildAt = buildAt, 0
	}
	for c, v := range probe.Vecs {
		j.out.Vecs[probeAt+c].Gather(v, pi)
	}
	for c, v := range j.buildCols {
		j.out.Vecs[buildAt+c].Gather(v, bi)
	}
}

// appendUnmatched emits a left row padded with NULL right columns in left
// outer mode (a no-op for inner joins, which drop unmatched probe rows).
// Outer joins always build on the right, so the probe side is the left.
func (j *HashJoin) appendUnmatched(probe *vector.Batch, pi int) {
	if !j.leftOuter {
		return
	}
	nLeft := len(j.left.Types())
	for c := range probe.Vecs {
		j.out.Vecs[c].Append(probe.Vecs[c], pi)
	}
	for c := nLeft; c < len(j.types); c++ {
		j.out.Vecs[c].AppendNull()
	}
}

// Close closes both children and drops the hash table and any spill runs.
func (j *HashJoin) Close() error {
	j.ints, j.strs, j.start, j.rows = nil, nil, nil, nil
	j.buildCols = nil
	j.out = nil
	if j.grace {
		j.closeGrace()
	}
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// MergeJoin is an inner equi-join of two inputs that are both sorted
// ascending on their key column. It streams both sides, buffering only the
// current group of equal keys, so it avoids the hash-table build that makes
// HashJoin "more expensive" (Section VI-B3). NULL keys never match and are
// skipped.
//
// For Int64/Date keys every batch without a NULL key compares the I64
// values directly: the sortedness check, the search for the next equal key
// (a galloping search within the batch, not one row per step) and the scan
// of a key's run. NULL-bearing batches and the other key types compare
// boxed values. Output is written a run at a time: the left row repeated
// (AppendRepeat) beside a range of right rows (AppendRange).
type MergeJoin struct {
	opStats
	left, right Operator
	leftKey     int
	rightKey    int
	types       []vector.Type

	lc, rc *mergeCursor
	// Buffered groups of equal keys (reused across groups).
	lGroup, rGroup []*vector.Vector
	lN, rN         int
	emitL, emitR   int
	emitting       bool
	// streaming mode: a single left row joined against the right stream.
	streaming bool
	streamKey vector.Value
	out       *vector.Batch
}

// NewMergeJoin creates a merge join; both inputs must be sorted ascending on
// their key columns (NULLs anywhere, which the cursors skip).
func NewMergeJoin(left, right Operator, leftKey, rightKey int) (*MergeJoin, error) {
	lt, rt := left.Types(), right.Types()
	if err := checkJoinKeys("merge join", lt, rt, leftKey, rightKey); err != nil {
		return nil, err
	}
	types := append(append([]vector.Type{}, lt...), rt...)
	return &MergeJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey, types: types}, nil
}

// Name returns the operator name.
func (j *MergeJoin) Name() string { return "MergeJoin" }

// Types returns left column types followed by right column types.
func (j *MergeJoin) Types() []vector.Type { return j.types }

// Open opens both children.
func (j *MergeJoin) Open(ctx context.Context) error {
	j.bindCtx(ctx)
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.lc = newMergeCursor(j.left, j.leftKey)
	j.rc = newMergeCursor(j.right, j.rightKey)
	j.lGroup = makeGroupBuf(j.left.Types())
	j.rGroup = makeGroupBuf(j.right.Types())
	j.emitting, j.streaming = false, false
	j.out = vector.NewBatch(j.types)
	return nil
}

func makeGroupBuf(types []vector.Type) []*vector.Vector {
	out := make([]*vector.Vector, len(types))
	for i, t := range types {
		out[i] = vector.New(t, 8)
	}
	return out
}

// Children returns both inputs, left first.
func (j *MergeJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Next advances the two cursors to the next pair of matching key groups and
// emits their cross product. The common many-to-one case (a single matching
// row on the left, e.g. a dimension primary key) streams the right side
// directly into the output without buffering the right group.
func (j *MergeJoin) Next() (*vector.Batch, error) {
	return j.nextBatch(j.next)
}

func (j *MergeJoin) next() (*vector.Batch, error) {
	j.out.Reset()
	nLeft := len(j.left.Types())
	for j.out.Len() < vector.BatchSize {
		switch {
		case j.emitting:
			j.emitGroups(nLeft)
		case j.streaming:
			done, err := j.streamRight(nLeft)
			if err != nil {
				return nil, errOp(j, err)
			}
			j.streaming = !done
		default:
			ok, err := j.align()
			if err != nil {
				return nil, errOp(j, err)
			}
			if !ok {
				return j.flush()
			}
		}
	}
	return j.out, nil
}

// align advances the cursors to the next key both sides hold and takes its
// groups: a single left row starts streaming, a larger left group buffers
// the right group too and starts emitting their cross product. It returns
// false once either side is exhausted.
func (j *MergeJoin) align() (bool, error) {
	for {
		lb, li, ok, err := j.lc.peek()
		if err != nil || !ok {
			return false, err
		}
		rb, ri, ok, err := j.rc.peek()
		if err != nil || !ok {
			return false, err
		}
		if lk, rk := j.lc.keys, j.rc.keys; lk != nil && rk != nil {
			if lk[li] < rk[ri] {
				j.lc.seek(rk[ri])
				continue
			}
			if lk[li] > rk[ri] {
				j.rc.seek(lk[li])
				continue
			}
		} else if cmp := lb.Vecs[j.leftKey].Compare(li, rb.Vecs[j.rightKey], ri); cmp != 0 {
			if cmp < 0 {
				j.lc.pos++
			} else {
				j.rc.pos++
			}
			continue
		}
		break
	}
	ln, err := j.lc.takeGroup(j.lGroup)
	if err != nil {
		return false, err
	}
	j.lN = ln
	if ln == 1 {
		j.streamKey = j.lGroup[j.leftKey].Value(0)
		j.streaming = true
		return true, nil
	}
	rn, err := j.rc.takeGroup(j.rGroup)
	if err != nil {
		return false, err
	}
	j.rN, j.emitL, j.emitR, j.emitting = rn, 0, 0, true
	return true, nil
}

// emitGroups continues the cross product of the buffered groups, left row
// major: each left row is repeated beside a range of right rows.
func (j *MergeJoin) emitGroups(nLeft int) {
	for j.out.Len() < vector.BatchSize && j.emitL < j.lN {
		n := min(j.rN-j.emitR, vector.BatchSize-j.out.Len())
		for c := 0; c < nLeft; c++ {
			j.out.Vecs[c].AppendRepeat(j.lGroup[c], j.emitL, n)
		}
		for c, v := range j.rGroup {
			j.out.Vecs[nLeft+c].AppendRange(v, j.emitR, j.emitR+n)
		}
		j.emitR += n
		if j.emitR == j.rN {
			j.emitR = 0
			j.emitL++
		}
	}
	j.emitting = j.emitL < j.lN
}

// flush returns the partially filled output batch at end of stream.
func (j *MergeJoin) flush() (*vector.Batch, error) {
	if j.out.Len() > 0 {
		return j.out, nil
	}
	return nil, nil
}

// streamRight emits (leftRow × right rows with the stream key) directly from
// the right cursor's batches into the output. Matching rows are consecutive
// within a batch, so whole runs are bulk-copied column-wise. It returns
// done=true once the right side moved past the key or ended.
func (j *MergeJoin) streamRight(nLeft int) (bool, error) {
	for j.out.Len() < vector.BatchSize {
		b, i, ok, err := j.rc.peek()
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		limit := min(b.Len(), i+vector.BatchSize-j.out.Len())
		end := j.rc.runEnd(i, limit, j.streamKey)
		for c := 0; c < nLeft; c++ {
			j.out.Vecs[c].AppendRepeat(j.lGroup[c], 0, end-i)
		}
		for c, v := range b.Vecs {
			j.out.Vecs[nLeft+c].AppendRange(v, i, end)
		}
		j.rc.pos = end
		if end < limit && !b.Vecs[j.rightKey].IsNull(end) {
			return true, nil // the next key is larger
		}
	}
	return false, nil
}

// Close closes both children.
func (j *MergeJoin) Close() error {
	j.lGroup, j.rGroup, j.out = nil, nil, nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// mergeCursor is a row cursor over an operator's stream that skips NULL keys
// and can extract the full group of rows sharing the current key.
type mergeCursor struct {
	op    Operator
	key   int
	typed bool // Int64/Date key
	batch *vector.Batch
	keys  []int64 // the batch's key values if typed and NULL-free, else nil
	pos   int
	eof   bool
	// monotonicity check state: each batch's key column is validated once
	// when loaded, so unsorted inputs are rejected without per-row overhead
	// on the hot peek path.
	prevKey vector.Value
	hasPrev bool
}

func newMergeCursor(op Operator, key int) *mergeCursor {
	t := op.Types()[key]
	return &mergeCursor{op: op, key: key, typed: t == vector.Int64 || t == vector.Date}
}

// peek returns the batch and row position of the current non-NULL-key row.
func (c *mergeCursor) peek() (*vector.Batch, int, bool, error) {
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
			keys, err := c.validate(b)
			if err != nil {
				return nil, 0, false, err
			}
			c.batch, c.keys, c.pos = b, keys, 0
		}
		if c.keys == nil && c.batch.Vecs[c.key].IsNull(c.pos) {
			c.pos++
			continue
		}
		return c.batch, c.pos, true, nil
	}
}

// validate verifies that the key column of an incoming non-empty batch
// continues the non-decreasing key sequence (NULLs excepted). It returns
// the batch's int64 keys when the typed paths can read them: the key is
// Int64/Date and the batch holds no NULL key.
func (c *mergeCursor) validate(b *vector.Batch) ([]int64, error) {
	kv := b.Vecs[c.key]
	n := kv.Len()
	if c.typed && !kv.HasNulls() {
		keys := kv.I64[:n]
		if c.hasPrev && c.prevKey.I64 > keys[0] {
			return nil, fmt.Errorf("merge join input not sorted across batches: %v after %v", kv.Value(0), c.prevKey)
		}
		for i := 1; i < n; i++ {
			if keys[i] < keys[i-1] {
				return nil, fmt.Errorf("merge join input not sorted within batch at row %d", i)
			}
		}
		c.prevKey, c.hasPrev = kv.Value(n-1), true
		return keys, nil
	}
	prev := -1
	for i := 0; i < n; i++ {
		if kv.IsNull(i) {
			continue
		}
		if prev >= 0 {
			if kv.Compare(prev, kv, i) > 0 {
				return nil, fmt.Errorf("merge join input not sorted within batch at row %d", i)
			}
		} else if c.hasPrev {
			if c.prevKey.Compare(kv.Value(i)) > 0 {
				return nil, fmt.Errorf("merge join input not sorted across batches: %v after %v", kv.Value(i), c.prevKey)
			}
		}
		prev = i
	}
	if prev >= 0 {
		c.prevKey, c.hasPrev = kv.Value(prev), true
	}
	return nil, nil
}

// seek moves a typed cursor whose current key is below k to the first row
// of its batch with a key of at least k, or to the batch end. It gallops
// (1, 2, 4, … rows ahead) and then binary-searches the last step, so a
// short skip costs a compare or two and a long one a logarithm of the
// batch.
func (c *mergeCursor) seek(k int64) {
	keys := c.keys
	lo, step := c.pos+1, 1
	for lo+step <= len(keys) && keys[lo+step-1] < k {
		lo += step
		step <<= 1
	}
	i, _ := slices.BinarySearch(keys[lo:min(lo+step, len(keys))], k)
	c.pos = lo + i
}

// runEnd returns the end of the run of current-batch rows from i (< limit)
// whose key equals key, a non-NULL value: the first row in [i, limit) with
// another key or a NULL one, or limit.
func (c *mergeCursor) runEnd(i, limit int, key vector.Value) int {
	end := i
	if c.keys != nil {
		for end < limit && c.keys[end] == key.I64 {
			end++
		}
		return end
	}
	kv := c.batch.Vecs[c.key]
	if c.typed {
		for end < limit && !kv.IsNull(end) && kv.I64[end] == key.I64 {
			end++
		}
		return end
	}
	for end < limit && !kv.IsNull(end) && kv.Value(end).Equal(key) {
		end++
	}
	return end
}

// takeGroup copies all rows sharing the current key (consecutive but for
// skipped NULL keys, possibly across batches) into the caller-provided
// (reused) group vectors and advances past them.
func (c *mergeCursor) takeGroup(group []*vector.Vector) (int, error) {
	b, i, ok, err := c.peek()
	if err != nil || !ok {
		return 0, err
	}
	for _, v := range group {
		v.Reset()
	}
	key := b.Vecs[c.key].Value(i)
	n := 0
	for {
		b, i, ok, err = c.peek()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		end := c.runEnd(i, b.Len(), key)
		for ci, v := range group {
			v.AppendRange(b.Vecs[ci], i, end)
		}
		n += end - i
		c.pos = end
		if end < b.Len() && !b.Vecs[c.key].IsNull(end) {
			break // the next key is larger
		}
	}
	return n, nil
}
