package vector

import "math/bits"

// Int64Table assigns dense ids 0, 1, 2, … to distinct int64 (or date) keys
// in first-insert order. It is an open-addressing, linear-probing hash table
// over two flat slices: slots holds id+1 per hash position (0 = empty, so no
// key value is reserved) and keys holds the key of each id. There is no
// per-entry allocation and no payload: callers keep whatever they attach to
// a key (a count, a first row, an aggregate state) in their own slices
// indexed by id, which stay cache-friendly because ids are handed out
// sequentially.
//
// The table holds at most math.MaxInt32 keys. It is not safe for concurrent
// use; parallel callers give each worker a table of its own over a disjoint
// part of the key space (see ShardOfInt64).
type Int64Table struct {
	slots []uint32
	keys  []int64
	shift uint // 64 - log2(len(slots)): the hash keeps the product's top bits
}

// hashMul is 2^64 / φ. Multiplying by it and keeping the top bits
// (Fibonacci hashing) spreads both sequential keys and keys that share
// trailing zero bits over the table.
const hashMul = 0x9E3779B97F4A7C15

// insertChunk is how many keys InsertBatch and LookupBatch hash ahead of
// probing. The first pass touches every home slot with no data-dependent
// branch, so the cache misses of one chunk overlap instead of queueing
// behind mispredicted probes; this is what keeps the per-key cost flat once
// the table outgrows the cache.
const insertChunk = 256

// NewInt64Table returns an empty table sized so that capacity distinct keys
// fit without growing (load factor at most one half).
func NewInt64Table(capacity int) *Int64Table {
	t := &Int64Table{keys: make([]int64, 0, capacity)}
	t.reserve(max(capacity, 4))
	return t
}

// ShardOfInt64 maps key to one of shards parts of the key space, using hash
// bits the table's slot choice does not: a worker that inserts only the keys
// of its shard still fills its table evenly.
func ShardOfInt64(key int64, shards int) int {
	low := uint32(uint64(key) * hashMul)
	return int(uint64(low) * uint64(shards) >> 32)
}

// Len returns the number of distinct keys inserted, which is also the next
// id to be assigned.
func (t *Int64Table) Len() int { return len(t.keys) }

// Keys returns the inserted keys in id order: Keys()[id] is the key of id.
// The slice is the table's own and valid until the next insert; callers
// must not modify it.
func (t *Int64Table) Keys() []int64 { return t.keys }

// home returns the slot key hashes to.
func (t *Int64Table) home(key int64) uint64 { return uint64(key) * hashMul >> t.shift }

// reserve grows the table until n more keys fit under the load limit.
func (t *Int64Table) reserve(n int) {
	need := len(t.keys) + n
	if 2*need <= len(t.slots) {
		return
	}
	if need > 1<<31-1 {
		panic("vector: Int64Table holds at most 2^31-1 keys")
	}
	logSlots := uint(bits.Len64(uint64(2*need - 1)))
	t.slots = make([]uint32, 1<<logSlots)
	t.shift = 64 - logSlots
	for id, key := range t.keys {
		slot, _ := t.find(key, t.home(key))
		t.slots[slot] = uint32(id) + 1
	}
}

// find probes from home slot h and returns the slot holding key with its
// id, or the empty slot that ends the probe sequence with id -1.
func (t *Int64Table) find(key int64, h uint64) (slot uint64, id int32) {
	mask := uint64(len(t.slots) - 1)
	for {
		s := t.slots[h]
		if s == 0 {
			return h, -1
		}
		if t.keys[s-1] == key {
			return h, int32(s - 1)
		}
		h = (h + 1) & mask
	}
}

// add gives key the next id and records it in the empty slot find returned;
// the caller has reserved room.
func (t *Int64Table) add(key int64, slot uint64) int32 {
	t.keys = append(t.keys, key)
	t.slots[slot] = uint32(len(t.keys))
	return int32(len(t.keys) - 1)
}

// Insert returns the id of key, assigning the next id if key is new; key
// was new exactly when the result equals Len() before the call.
func (t *Int64Table) Insert(key int64) int32 {
	t.reserve(1)
	slot, id := t.find(key, t.home(key))
	if id < 0 {
		id = t.add(key, slot)
	}
	return id
}

// Lookup returns the id of key, or -1 if it was never inserted.
func (t *Int64Table) Lookup(key int64) int32 {
	_, id := t.find(key, t.home(key))
	return id
}

// InsertBatch sets ids[i] to the id of keys[i], inserting the keys that are
// new. Ids are dense and assigned in order, so with n := Len() before the
// call, keys[i] was new exactly when ids[i] == n + (new keys before i).
// ids must be at least as long as keys.
func (t *Int64Table) InsertBatch(keys []int64, ids []int32) {
	var home [insertChunk]uint32
	for len(keys) > 0 {
		n := min(len(keys), insertChunk)
		t.reserve(n)
		t.touch(keys[:n], home[:n], ids)
		for i, key := range keys[:n] {
			slot, id := t.find(key, uint64(home[i]))
			if id < 0 {
				id = t.add(key, slot)
			}
			ids[i] = id
		}
		keys, ids = keys[n:], ids[n:]
	}
}

// LookupBatch sets ids[i] to the id of keys[i], or -1 where the key is
// absent. ids must be at least as long as keys.
func (t *Int64Table) LookupBatch(keys []int64, ids []int32) {
	var home [insertChunk]uint32
	for len(keys) > 0 {
		n := min(len(keys), insertChunk)
		t.touch(keys[:n], home[:n], ids)
		for i, key := range keys[:n] {
			_, ids[i] = t.find(key, uint64(home[i]))
		}
		keys, ids = keys[n:], ids[n:]
	}
}

// touch hashes keys into home and loads every home slot, so the probe loop
// that follows finds them in cache. The loaded values are parked in ids,
// which the probe loop overwrites, only so the loads are not dead code.
func (t *Int64Table) touch(keys []int64, home []uint32, ids []int32) {
	for i, key := range keys {
		h := uint32(t.home(key))
		home[i] = h
		ids[i] = int32(t.slots[h])
	}
}
