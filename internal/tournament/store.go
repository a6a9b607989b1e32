package tournament

// DefaultSeriesWindow is the minute-resolution retention of the arena's
// time-series store: one day. The hourly rollup ring holds the same number
// of buckets, extending the queryable horizon 60×.
const DefaultSeriesWindow = 1440

// Channel identifies one per-minute aggregate tracked for the live policy
// (shared) or for one entrant.
type Channel int

// The tracked channels. ChanKaMMB is a point-in-time gauge (MB kept alive
// during the minute) and rolls up hourly by mean; the rest are per-minute
// amounts and roll up by sum. ChanInvocations exists only on the shared
// account (every entrant sees the identical invocation feed);
// ChanSavingsUSD exists only on entrants (entrant cost − live cost for the
// minute, priced when the minute closes).
const (
	ChanKaMMB Channel = iota
	ChanCostUSD
	ChanCold
	ChanInvocations
	ChanSavingsUSD
)

// Selector addresses one time-series: a channel of the shared live account
// (Entrant < 0) or of entrant index Entrant.
type Selector struct {
	Entrant int
	Channel Channel
}

// Shared returns the selector for a live-account channel.
func Shared(c Channel) Selector { return Selector{Entrant: -1, Channel: c} }

// Point is one time-series sample.
type Point struct {
	Minute int     `json:"minute"`
	Value  float64 `json:"value"`
}

// Per-row layout: 4 shared channels, then 4 channels per entrant.
const (
	sharedChans  = 4 // kam, cost, cold, invocations
	entrantChans = 4 // kam, cost, cold, savings
)

// rowWidth is the store row size for nEntrants entrants.
func rowWidth(nEntrants int) int { return sharedChans + entrantChans*nEntrants }

// index maps a selector to its row offset, reporting false for channels
// the account does not carry.
func (s Selector) index(nEntrants int) (int, bool) {
	if s.Entrant < 0 {
		switch s.Channel {
		case ChanKaMMB:
			return 0, true
		case ChanCostUSD:
			return 1, true
		case ChanCold:
			return 2, true
		case ChanInvocations:
			return 3, true
		}
		return 0, false
	}
	if s.Entrant >= nEntrants {
		return 0, false
	}
	base := sharedChans + entrantChans*s.Entrant
	switch s.Channel {
	case ChanKaMMB:
		return base, true
	case ChanCostUSD:
		return base + 1, true
	case ChanCold:
		return base + 2, true
	case ChanSavingsUSD:
		return base + 3, true
	}
	return 0, false
}

// store is a fixed-capacity windowed time-series: a ring of per-minute
// rows (idx = minute % window, with a stamp array to detect stale slots)
// plus an hourly rollup ring of the same bucket count. Pushes allocate
// nothing; all storage is laid out at construction. Callers synchronize
// externally (the Arena's mutex).
type store struct {
	window int
	width  int
	gauge  []bool // per-offset: hourly rollup averages instead of sums
	stamps []int  // minute stored in each slot, -1 when empty
	vals   [][]float64

	hourStamps []int // hour (minute/60) stored in each rollup slot
	hourVals   [][]float64
	hourCnt    []int // minutes summed into the open rollup
}

func newStore(window, nEntrants int) *store {
	width := rowWidth(nEntrants)
	s := &store{
		window:     window,
		width:      width,
		gauge:      make([]bool, width),
		stamps:     make([]int, window),
		vals:       make([][]float64, window),
		hourStamps: make([]int, window),
		hourVals:   make([][]float64, window),
		hourCnt:    make([]int, window),
	}
	s.gauge[0] = true // shared KaM
	for e := 0; e < nEntrants; e++ {
		s.gauge[sharedChans+entrantChans*e] = true // entrant KaM
	}
	for i := range s.stamps {
		s.stamps[i] = -1
		s.hourStamps[i] = -1
		s.vals[i] = make([]float64, width)
		s.hourVals[i] = make([]float64, width)
	}
	return s
}

// push records minute m's row, overwriting whatever the slot held a window
// ago, and folds the minute into its hourly rollup bucket.
func (s *store) push(m int, row []float64) {
	if m < 0 {
		return
	}
	i := m % s.window
	s.stamps[i] = m
	copy(s.vals[i], row)

	h := m / 60
	hi := h % s.window
	if s.hourStamps[hi] != h {
		s.hourStamps[hi] = h
		for k := range s.hourVals[hi] {
			s.hourVals[hi][k] = 0
		}
		s.hourCnt[hi] = 0
	}
	for k, v := range row {
		s.hourVals[hi][k] += v
	}
	s.hourCnt[hi]++
}

// at returns the value at row offset idx for one closed minute, reporting
// false when the slot is empty or has been overwritten by a newer minute.
func (s *store) at(idx, m int) (float64, bool) {
	if m < 0 {
		return 0, false
	}
	i := m % s.window
	if s.stamps[i] != m {
		return 0, false
	}
	return s.vals[i][idx], true
}

// series appends the most recent points for row offset idx within the
// trailing window [now-window+1, now] to dst, oldest first. hourly
// switches to the rollup ring (window then counts hours); gauge offsets
// report the hourly mean, amounts the hourly sum.
func (s *store) series(idx, now, window int, hourly bool, dst []Point) []Point {
	if now < 0 || window <= 0 {
		return dst
	}
	if window > s.window {
		window = s.window
	}
	if hourly {
		nowH := now / 60
		for h := nowH - window + 1; h <= nowH; h++ {
			if h < 0 {
				continue
			}
			hi := h % s.window
			if s.hourStamps[hi] != h || s.hourCnt[hi] == 0 {
				continue
			}
			v := s.hourVals[hi][idx]
			if s.gauge[idx] {
				v /= float64(s.hourCnt[hi])
			}
			dst = append(dst, Point{Minute: h * 60, Value: v})
		}
		return dst
	}
	for m := now - window + 1; m <= now; m++ {
		if m < 0 {
			continue
		}
		i := m % s.window
		if s.stamps[i] != m {
			continue
		}
		dst = append(dst, Point{Minute: m, Value: s.vals[i][idx]})
	}
	return dst
}
