package vector

import (
	"math"
	"math/bits"
)

// KeyTable assigns dense ids 0, 1, 2, … in first-insert order to the
// distinct rows of one or more key columns of any type. Two rows are one key
// when every column is equal under SQL = (-0.0 and +0.0 are one key), except
// that NULL equals NULL and NaNs with equal bits are one key: the semantics
// of GROUP BY. Like Int64Table it carries no payload; callers keep what they
// attach to a key in their own slices indexed by id.
//
// A single Int64/Date column runs on an Int64Table. Every other shape hashes
// each column typed (HashRows) into one open-addressing table of ids and
// checks a hash match against the table's own copy of each key, so no key
// is encoded to bytes or copied beyond that one vector append per new key.
//
// The table holds at most math.MaxInt32 keys and is not safe for concurrent
// use.
type KeyTable struct {
	// One Int64/Date column: ints numbers the keys. The NULL key takes the
	// id at its own first occurrence, nullID (-1 before it), which ints
	// skips.
	ints   *Int64Table
	nullID int32

	// Every other shape.
	keys []*Vector // the key of each id, one vector per column
	// slots holds per hash position the top 32 bits of the key's hash
	// (high half) and its id+1 (low half, 0 = empty). The slot index is
	// made of those bits too, so the table regrows from its slots alone,
	// and a probe rejects most non-matching keys without touching them.
	slots []uint64
	shift uint     // 64 - log2(len(slots)): a slot is a hash's top bits
	n     int      // keys held
	rowH  []uint64 // scratch: a chunk's row hashes
}

// NewKeyTable returns an empty table over key columns of the given types,
// sized so that capacity distinct keys fit without growing.
func NewKeyTable(types []Type, capacity int) *KeyTable {
	if len(types) == 1 && isIntKey(types[0]) {
		return &KeyTable{ints: NewInt64Table(capacity), nullID: -1}
	}
	t := &KeyTable{keys: make([]*Vector, len(types)), rowH: make([]uint64, insertChunk)}
	for c, typ := range types {
		t.keys[c] = New(typ, capacity)
	}
	t.reserve(max(capacity, 4))
	return t
}

func isIntKey(t Type) bool { return t == Int64 || t == Date }

// Len returns the number of distinct keys inserted, which is also the next
// id to be assigned.
func (t *KeyTable) Len() int {
	if t.ints == nil {
		return t.n
	}
	return t.ints.Len()
}

// InsertBatch sets ids[i] to the id of row i of cols (one vector per key
// column, rows [0, n)), inserting the keys that are new. Ids are dense and
// assigned in row order, so with m := Len() before the call, row i was new
// exactly when ids[i] == m + (new keys before row i). ids must hold n.
func (t *KeyTable) InsertBatch(cols []*Vector, n int, ids []int32) {
	if t.ints == nil {
		t.probe(cols, n, ids, true)
		return
	}
	// Runs of non-NULL keys go through ints; a NULL takes the NULL key's
	// id, which is the next id at the first NULL.
	v := cols[0]
	for lo := 0; lo < n; {
		hi := n
		if v.Nulls != nil {
			for hi = lo; hi < n && !v.Nulls[hi]; hi++ {
			}
		}
		t.ints.InsertBatch(v.I64[lo:hi], ids[lo:hi])
		if hi == n {
			return
		}
		if t.nullID < 0 {
			t.nullID = t.ints.skipID()
		}
		ids[hi] = t.nullID
		lo = hi + 1
	}
}

// LookupBatch sets ids[i] to the id of row i of cols, or -1 where the key
// was never inserted. ids must hold n.
func (t *KeyTable) LookupBatch(cols []*Vector, n int, ids []int32) {
	if t.ints == nil {
		t.probe(cols, n, ids, false)
		return
	}
	v := cols[0]
	t.ints.LookupBatch(v.I64[:n], ids)
	for i := 0; v.Nulls != nil && i < n; i++ {
		if v.Nulls[i] {
			ids[i] = t.nullID
		}
	}
}

// AppendKeys appends the keys of ids [from, to) to out, one vector per key
// column. A key's values are those of the row that first inserted it.
func (t *KeyTable) AppendKeys(out []*Vector, from, to int) {
	if t.ints == nil {
		for c, k := range t.keys {
			out[c].AppendRange(k, from, to)
		}
		return
	}
	keys := t.ints.Keys()
	for id := from; id < to; id++ {
		if id == int(t.nullID) {
			out[0].AppendNull()
		} else {
			out[0].AppendInt64(keys[id])
		}
	}
}

// probe runs rows [0, n) of cols through the general table, a chunk of
// hashes at a time, inserting the new keys when insert is set and giving
// them id -1 otherwise.
func (t *KeyTable) probe(cols []*Vector, n int, ids []int32, insert bool) {
	for lo := 0; lo < n; lo += insertChunk {
		hi := min(lo+insertChunk, n)
		h := t.rowH[:hi-lo]
		HashRows(cols, lo, hi, h)
		if insert {
			t.reserve(hi - lo)
		}
		mask := uint64(len(t.slots) - 1)
		for r, hr := range h {
			i := lo + r
			s, tag := hr>>t.shift, hr&^idMask
			for {
				e := t.slots[s]
				if e == 0 && !insert {
					ids[i] = -1
					break
				}
				if e == 0 { // a new key: the next id, its values appended
					for c, k := range t.keys {
						k.Append(cols[c], i)
					}
					t.n++
					t.slots[s] = tag | uint64(t.n)
					ids[i] = int32(t.n - 1)
					break
				}
				if e&^idMask == tag && t.equal(int(uint32(e)-1), cols, i) {
					ids[i] = int32(uint32(e) - 1)
					break
				}
				s = (s + 1) & mask
			}
		}
	}
}

// idMask selects the id+1 half of a slot.
const idMask = 1<<32 - 1

// equal reports whether key id equals row i of cols.
func (t *KeyTable) equal(id int, cols []*Vector, i int) bool {
	for c, k := range t.keys {
		v := cols[c]
		var eq bool
		switch kn, vn := k.IsNull(id), v.IsNull(i); {
		case kn || vn:
			eq = kn == vn
		case k.Typ == Float64:
			eq = Float64KeyBits(k.F64[id]) == Float64KeyBits(v.F64[i])
		case k.Typ == String:
			eq = k.Str[id] == v.Str[i]
		case k.Typ == Bool:
			eq = k.B[id] == v.B[i]
		default:
			eq = k.I64[id] == v.I64[i]
		}
		if !eq {
			return false
		}
	}
	return true
}

// reserve grows the general table until n more keys fit under a load
// factor of one half.
func (t *KeyTable) reserve(n int) {
	need := t.n + n
	if 2*need <= len(t.slots) {
		return
	}
	if need > math.MaxInt32 {
		panic("vector: KeyTable holds at most 2^31-1 keys")
	}
	// At most 2^32 slots: a slot index fits in the 32 hash bits a slot keeps.
	logSlots := uint(bits.Len64(uint64(2*need - 1)))
	old := t.slots
	t.slots = make([]uint64, 1<<logSlots)
	t.shift = 64 - logSlots
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		s := e >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = e
	}
}

// nullHash is what a NULL value contributes to a row hash.
const nullHash uint64 = 0x2545F4914F6CDD1D

// HashRows sets h[i-lo] to the hash of row i of cols for every i in
// [lo, hi): the hash KeyTable places the row by. For one Int64/Date column
// it is the key times 2^64/φ, Int64Table's hash, whose top bits pick the
// slot; every other shape mixes one typed hash per column (floats through
// Float64KeyBits, strings by their bytes, NULL as a constant) and
// finalises, so all 64 bits are usable. Rows that are one key hash alike.
func HashRows(cols []*Vector, lo, hi int, h []uint64) {
	h = h[:hi-lo]
	if len(cols) == 1 && isIntKey(cols[0].Typ) {
		v := cols[0]
		for r, x := range v.I64[lo:hi] {
			h[r] = uint64(x) * hashMul
		}
		if v.Nulls != nil {
			for r, null := range v.Nulls[lo:hi] {
				if null {
					h[r] = nullHash
				}
			}
		}
		return
	}
	clear(h)
	for _, v := range cols {
		for r := range h {
			i := lo + r
			var c uint64
			switch {
			case v.IsNull(i):
				c = nullHash
			case v.Typ == Float64:
				c = Float64KeyBits(v.F64[i])
			case v.Typ == String:
				c = hashString(v.Str[i])
			case v.Typ == Bool:
				if v.B[i] {
					c = 1
				}
			default:
				c = uint64(v.I64[i])
			}
			h[r] = (h[r] ^ c) * hashMul
		}
	}
	for r, x := range h {
		// The murmur3 finaliser: every input bit reaches every output bit.
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		h[r] = x ^ x>>33
	}
}

// hashString hashes the bytes of s eight at a time, each word folded in by
// a 64x64→128-bit multiply whose halves are xored together.
func hashString(s string) uint64 {
	h := uint64(len(s)) * hashMul
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = foldMul(h^w, stringMul)
	}
	var w uint64
	if len(s) >= 4 {
		w = uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
		s = s[4:]
		w <<= 8 * uint(len(s))
	}
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return foldMul(h^w, stringMul)
}

// stringMul is an odd constant with well-spread bits (wyhash's second
// secret).
const stringMul = 0xe7037ed1a0b428db

func foldMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
