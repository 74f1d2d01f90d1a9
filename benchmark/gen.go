package main

// The benchmark's own seeded data generator. It deliberately imports neither
// internal/datagen nor internal/bench, so shrinking either cannot change what
// is measured. It produces plain []int64 columns plus the arithmetic the
// result oracles check against; layers.go turns the columns into engine
// vectors. Same seed, same bytes: every workload prints a digest of its
// inputs (columns and statement texts) so two runs can prove it.

// rng is splitmix64: tiny, fast, and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// hit reports true with probability perMille/1000.
func (r *rng) hit(perMille int) bool { return r.next()%1000 < uint64(perMille) }

// mix64 is a stateless hash of (seed, k): the point-lookup table derives its
// payload from it so the oracle can recompute any row without the table.
func mix64(seed int64, k int64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// digest folds values into a 64-bit fingerprint (word-wise FNV-1a variant;
// only equality between two runs matters, not hash quality).
type digest uint64

func newDigest() digest { return 0xcbf29ce484222325 }

func (d *digest) ints(vs []int64) {
	h := uint64(*d)
	for _, v := range vs {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	*d = digest(h)
}

func (d *digest) str(s string) {
	h := uint64(*d)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	*d = digest(h)
}

// part is one partition's worth of columns, in schema order.
type part [][]int64

// Exception rates, per mille: the paper's custom generator at 5 % (§VII-B)
// and catalog_sales' 0.5 % late arrivals (§VII-A1).
const (
	uniquePerMille = 50
	sortedPerMille = 50
	latePerMille   = 5
)

// dataTable is the paper's custom generator (§VII-B): data(u, s, payload).
//
//   - u is unique (pool+1+global row) except for uniquePerMille/1000 of the
//     rows, which draw from a pool of rows/100 values and therefore collide;
//   - s equals the global row position except for sortedPerMille/1000 of the
//     rows — partitions are contiguous chunks, so the column is nearly
//     sorted globally too. With jitter 0 an exception takes a random value
//     in [0, rows), the paper's generator; with jitter j it arrives late by
//     up to j positions, which keeps every block's min/max tight so range
//     predicates on s still prune (the durable workload's shape);
//   - payload is uniform in [0, 1000).
type dataTable struct {
	rows  int
	parts []part
	// distinctU is COUNT(DISTINCT u): unique rows plus pool values drawn.
	distinctU int
	// sumS is SUM(s), the sort oracle's checksum.
	sumS int64
}

const payloadCard = 1000

// poolSize is the exception pool for a table of the given size: the paper
// fixes 100K values for 100M rows, so the pool scales with the table.
func poolSize(rows int) int {
	if rows < 10_000 {
		return 100
	}
	return rows / 100
}

func genData(seed int64, rows, partitions, jitter int) *dataTable {
	pool := poolSize(rows)
	t := &dataTable{rows: rows}
	poolSeen := make([]bool, pool)
	per := (rows + partitions - 1) / partitions
	for p, off := 0, 0; p < partitions && off < rows; p, off = p+1, off+per {
		n := per
		if off+n > rows {
			n = rows - off
		}
		r := newRNG(seed, uint64(p))
		u, s, pay := make([]int64, n), make([]int64, n), make([]int64, n)
		for i := 0; i < n; i++ {
			g := off + i
			if r.hit(uniquePerMille) {
				v := r.intn(pool)
				u[i] = int64(v)
				if !poolSeen[v] {
					poolSeen[v] = true
					t.distinctU++
				}
			} else {
				u[i] = int64(pool + 1 + g)
				t.distinctU++
			}
			s[i] = sortedValue(r, g, rows, jitter)
			t.sumS += s[i]
			pay[i] = int64(r.intn(payloadCard))
		}
		t.parts = append(t.parts, part{u, s, pay})
	}
	return t
}

// sortedValue is s for global row g.
func sortedValue(r *rng, g, rows, jitter int) int64 {
	switch {
	case !r.hit(sortedPerMille):
		return int64(g)
	case jitter == 0:
		return int64(r.intn(rows))
	default:
		late := g - 1 - r.intn(jitter)
		if late < 0 {
			late = 0
		}
		return int64(late)
	}
}

// dateRows is the size of TPC-DS date_dim (§VII-A1).
const (
	dateRows = 73049
	dateBase = 2415022
)

// genDates is dates(d_date_sk, d_year): dense, sorted, one partition.
func genDates() part {
	sk, yr := make([]int64, dateRows), make([]int64, dateRows)
	for i := range sk {
		sk[i] = int64(dateBase + i)
		yr[i] = int64(1900 + i/365)
	}
	return part{sk, yr}
}

// genSales is sales(cs_sold_date_sk, cs_item_sk, cs_quantity): loaded in date
// order with latePerMille/1000 late arrivals at a random day. Every key
// exists in dates exactly once, so the join count equals the row count.
func genSales(seed int64, rows, partitions int) []part {
	var parts []part
	per := (rows + partitions - 1) / partitions
	for p, off := 0, 0; p < partitions && off < rows; p, off = p+1, off+per {
		n := per
		if off+n > rows {
			n = rows - off
		}
		r := newRNG(seed, 1000+uint64(p))
		sold, item, qty := make([]int64, n), make([]int64, n), make([]int64, n)
		for i := 0; i < n; i++ {
			day := int64(off+i) * dateRows / int64(rows)
			if r.hit(latePerMille) {
				day = int64(r.intn(dateRows))
			}
			sold[i] = dateBase + day
			item[i] = int64(r.intn(100_000) + 1)
			qty[i] = int64(r.intn(100) + 1)
		}
		parts = append(parts, part{sold, item, qty})
	}
	return parts
}

// dimPayload is dim.payload for key k.
func dimPayload(seed int64, k int64) int64 { return int64(mix64(seed, k) % payloadCard) }

// genDim is dim(k, payload): k is the row position, exactly sorted, so block
// min/max leave one or two blocks for a 51-key range.
func genDim(seed int64, rows, partitions int) []part {
	var parts []part
	per := (rows + partitions - 1) / partitions
	for off := 0; off < rows; off += per {
		n := per
		if off+n > rows {
			n = rows - off
		}
		k, pay := make([]int64, n), make([]int64, n)
		for i := range k {
			k[i] = int64(off + i)
			pay[i] = dimPayload(seed, k[i])
		}
		parts = append(parts, part{k, pay})
	}
	return parts
}

// appendBatch is step i of the durable-ingest script: rows continue the
// table's positions (so s stays nearly sorted and u stays nearly unique with
// the same exception rates as the loaded table).
func appendBatch(seed int64, baseRows, step, n, jitter int) part {
	r := newRNG(seed, 5000+uint64(step))
	pool := poolSize(baseRows)
	u, s, pay := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		g := baseRows + step*n + i
		if r.hit(uniquePerMille) {
			u[i] = int64(r.intn(pool))
		} else {
			u[i] = int64(pool + 1 + g)
		}
		s[i] = sortedValue(r, g, g+1, jitter)
		pay[i] = int64(r.intn(payloadCard))
	}
	return part{u, s, pay}
}

// rangeCounter answers "how many rows have s in [a, b]" for the
// durable-ingest scans while batches keep arriving: a Fenwick tree over the
// value domain [0, n).
type rangeCounter struct{ tree []int32 }

func newRangeCounter(n int) *rangeCounter { return &rangeCounter{tree: make([]int32, n+1)} }

// add counts one row with value v; values outside the domain are never
// queried and are ignored.
func (c *rangeCounter) add(v int64) {
	if v < 0 || int(v) >= len(c.tree)-1 {
		return
	}
	for i := int(v) + 1; i < len(c.tree); i += i & -i {
		c.tree[i]++
	}
}

func (c *rangeCounter) prefix(v int64) int64 {
	var sum int64
	for i := int(v) + 1; i > 0; i -= i & -i {
		sum += int64(c.tree[i])
	}
	return sum
}

func (c *rangeCounter) count(a, b int64) int64 { return c.prefix(b) - c.prefix(a-1) }
