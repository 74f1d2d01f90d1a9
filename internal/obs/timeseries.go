package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Time-series retention: the sampler appends one raw point per series per
// interval; closed 10-second and 5-minute buckets are published into their
// own rings. Capacities bound memory per series at roughly
// (600+360+288) slots x ~64 B ~= 80 KB regardless of uptime. At the default
// 1 s cadence the tiers cover ~10 minutes raw, 1 hour at 10 s resolution,
// and 24 hours at 5 min resolution.
const (
	TierRaw = "raw"
	Tier10s = "10s"
	Tier5m  = "5m"

	DefaultRawPoints  = 600
	Default10sPoints  = 360
	Default5minPoints = 288

	tier10sNanos = int64(10 * time.Second)
	tier5mNanos  = int64(5 * time.Minute)
)

// Point is one observation (raw tier, Count=1) or one closed downsampling
// bucket (coarser tiers) of a series. UnixNanos is the sample time for raw
// points and the bucket start for aggregated ones.
type Point struct {
	UnixNanos int64   `json:"t"`
	Last      float64 `json:"last"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Sum       float64 `json:"sum"`
	Count     int64   `json:"count"`
}

// Mean returns Sum/Count (Last when the bucket is degenerate).
func (p Point) Mean() float64 {
	if p.Count == 0 {
		return p.Last
	}
	return p.Sum / float64(p.Count)
}

// merge folds an observation into an open bucket.
func (p *Point) merge(v float64) {
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
	p.Last = v
	p.Sum += v
	p.Count++
}

func newPoint(unixNanos int64, v float64) Point {
	return Point{UnixNanos: unixNanos, Last: v, Min: v, Max: v, Sum: v, Count: 1}
}

// points copies a tier's published points, oldest first by timestamp.
func points(r *Ring[Point]) []Point {
	out := r.Values()
	sort.Slice(out, func(i, j int) bool { return out[i].UnixNanos < out[j].UnixNanos })
	return out
}

// Series is one named metric history across the three retention tiers.
// Observe is serialized by a mutex (writes happen at sampler cadence, so
// contention is negligible); readers touch the mutex only long enough to
// copy the open downsampling buckets.
type Series struct {
	raw, mid, lng *Ring[Point]

	mu       sync.Mutex
	midOpen  bool
	midAgg   Point
	lngOpen  bool
	lngAgg   Point
	observed atomic.Int64 // total Observe calls (wrap-around visibility)
}

func newSeries(rawCap, midCap, lngCap int) *Series {
	return &Series{
		raw: NewRing[Point](rawCap),
		mid: NewRing[Point](midCap),
		lng: NewRing[Point](lngCap),
	}
}

// Observe records one sample at the given time. Out-of-order timestamps
// land in whatever bucket they truncate to; the sampler is the only
// expected writer, so times are monotone in practice.
func (s *Series) Observe(unixNanos int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	p := newPoint(unixNanos, v)
	s.raw.Add(&p)
	s.roll(&s.midOpen, &s.midAgg, s.mid, tier10sNanos, unixNanos, v)
	s.roll(&s.lngOpen, &s.lngAgg, s.lng, tier5mNanos, unixNanos, v)
	s.mu.Unlock()
	s.observed.Add(1)
}

// roll folds v into the open bucket of one downsampled tier, publishing the
// previous bucket when the sample crosses a bucket boundary. Caller holds
// s.mu.
func (s *Series) roll(open *bool, agg *Point, ring *Ring[Point], bucketNanos, t int64, v float64) {
	b := t - t%bucketNanos
	if *open && agg.UnixNanos != b {
		closed := *agg
		ring.Add(&closed)
		*open = false
	}
	if !*open {
		*agg = newPoint(b, v)
		*open = true
		return
	}
	agg.merge(v)
}

// Observed returns the total number of samples ever recorded (it keeps
// counting after the rings wrap, making eviction visible).
func (s *Series) Observed() int64 {
	if s == nil {
		return 0
	}
	return s.observed.Load()
}

// Points returns the retained points of one tier, oldest first, including
// the still-open downsampling bucket so the freshest data is never hidden.
// Unknown tier names fall back to raw.
func (s *Series) Points(tier string) []Point {
	if s == nil {
		return nil
	}
	switch tier {
	case Tier10s:
		out := points(s.mid)
		s.mu.Lock()
		if s.midOpen {
			out = append(out, s.midAgg)
		}
		s.mu.Unlock()
		return out
	case Tier5m:
		out := points(s.lng)
		s.mu.Lock()
		if s.lngOpen {
			out = append(out, s.lngAgg)
		}
		s.mu.Unlock()
		return out
	default:
		return points(s.raw)
	}
}

// Latest returns the most recent raw point (ok=false when empty).
func (s *Series) Latest() (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	pts := points(s.raw)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// TierFor picks the coarsest tier that still covers the window at full ring
// capacity, assuming the given sampling interval for the raw tier.
func TierFor(window, interval time.Duration, rawCap int) string {
	if interval <= 0 {
		interval = time.Second
	}
	switch {
	case window <= time.Duration(rawCap)*interval:
		return TierRaw
	case window <= time.Duration(Default10sPoints)*10*time.Second:
		return Tier10s
	default:
		return Tier5m
	}
}

// SeriesSet is a named collection of series — the sampler's sink and the
// /timeseries and SHOW TIMESERIES source. Lookup takes a short RWMutex;
// Observe on the returned series is per-series.
type SeriesSet struct {
	mu     sync.RWMutex
	series map[string]*Series

	rawCap, midCap, lngCap int
}

// NewSeriesSet creates an empty set; non-positive capacities take the
// defaults.
func NewSeriesSet(rawCap, midCap, lngCap int) *SeriesSet {
	if rawCap <= 0 {
		rawCap = DefaultRawPoints
	}
	if midCap <= 0 {
		midCap = Default10sPoints
	}
	if lngCap <= 0 {
		lngCap = Default5minPoints
	}
	return &SeriesSet{
		series: map[string]*Series{},
		rawCap: rawCap, midCap: midCap, lngCap: lngCap,
	}
}

// Get returns (creating if absent) the named series. Nil-safe: a nil set
// returns nil, whose methods no-op.
func (ss *SeriesSet) Get(name string) *Series {
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	s := ss.series[name]
	ss.mu.RUnlock()
	if s != nil {
		return s
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s = ss.series[name]; s == nil {
		s = newSeries(ss.rawCap, ss.midCap, ss.lngCap)
		ss.series[name] = s
	}
	return s
}

// Lookup returns the named series or nil (never creates).
func (ss *SeriesSet) Lookup(name string) *Series {
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.series[name]
}

// Names returns every series name, sorted.
func (ss *SeriesSet) Names() []string {
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	names := make([]string, 0, len(ss.series))
	for k := range ss.series {
		names = append(names, k)
	}
	ss.mu.RUnlock()
	sort.Strings(names)
	return names
}

// RawCap returns the raw-tier ring capacity (used for tier selection).
func (ss *SeriesSet) RawCap() int {
	if ss == nil {
		return DefaultRawPoints
	}
	return ss.rawCap
}

// Window returns the points of a series within the trailing window ending
// at nowNanos, picking the tier for the window (or honoring an explicit
// tier name). A zero window returns the whole tier.
func (ss *SeriesSet) Window(name, tier string, window time.Duration, nowNanos int64, interval time.Duration) []Point {
	s := ss.Lookup(name)
	if s == nil {
		return nil
	}
	if tier == "" {
		if window <= 0 {
			tier = TierRaw
		} else {
			tier = TierFor(window, interval, ss.RawCap())
		}
	}
	pts := s.Points(tier)
	if window <= 0 {
		return pts
	}
	lo := nowNanos - int64(window)
	i := sort.Search(len(pts), func(i int) bool { return pts[i].UnixNanos >= lo })
	return pts[i:]
}
