package e2e

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/perfbench/stats"
)

// Workers is the load: every side of every workload runs on two
// goroutines (or two connections), matching the two vCPUs the bounds
// were set on.
const Workers = 2

// Slice is one timed stretch of work by one side.
type Slice struct {
	Px  int64           // source pixels completed
	Dur time.Duration   // wall time of the stretch
	Lat []time.Duration // per-operation latencies, when operations were timed singly
	Ops []int           // operations completed per goroutine, for Loop sides
}

// Side runs one slice of work. With a nil quota it runs for the budget;
// otherwise goroutine g runs exactly quota[g] operations — the count
// the paired slice completed — so both sides of a pair cover the same
// operations of the same mix. A side that runs fixed units (one batch)
// ignores both.
type Side func(budget time.Duration, quota []int) Slice

// Op is one operation of goroutine g, the n-th that goroutine has run.
// It returns the source pixels it covered and, optionally, a check of
// its output that runs after the operation's latency is taken.
type Op func(g, n int) (px int64, check func())

// Loop is the Side that runs op on Workers goroutines, each in a closed
// loop, until the budget has elapsed (every goroutine finishes the
// operation it is in) or the quota is met; each operation's latency is
// recorded.
func Loop(op Op) Side {
	var seq [Workers]atomic.Int64 // per-goroutine op counters, kept across slices
	return func(budget time.Duration, quota []int) Slice {
		var (
			wg  sync.WaitGroup
			mu  sync.Mutex
			out = Slice{Ops: make([]int, Workers)}
		)
		start := time.Now()
		deadline := start.Add(budget)
		for g := 0; g < Workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var px int64
				var lat []time.Duration
				for k := 0; ; k++ {
					if quota != nil && k >= quota[g] || quota == nil && !time.Now().Before(deadline) {
						break
					}
					n := int(seq[g].Add(1) - 1)
					t0 := time.Now()
					p, check := op(g, n)
					lat = append(lat, time.Since(t0))
					px += p
					if check != nil {
						check()
					}
				}
				mu.Lock()
				out.Px += px
				out.Lat = append(out.Lat, lat...)
				out.Ops[g] = len(lat)
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		out.Dur = time.Since(start)
		return out
	}
}

// Fixed is the Side that runs one fixed unit of work per slice and
// times it as a whole; the unit's output check runs after the clock
// stops.
func Fixed(unit func() (px int64, check func())) Side {
	return func(time.Duration, []int) Slice {
		t0 := time.Now()
		px, check := unit()
		s := Slice{Px: px, Dur: time.Since(t0)}
		if check != nil {
			check()
		}
		return s
	}
}

// Phase pairs the program with its yardstick on one kind of slice.
type Phase struct {
	Name       string
	Prog, Yard Side
	Budget     time.Duration // per slice, for Loop sides
	Latency    bool          // slices time single operations
	// Pooled makes TputRatio a ratio of totals; see there.
	Pooled bool
	// MatchProg gives each yardstick slice the length of the latest
	// program slice, so a yardstick several times faster than the
	// program is not timed over a stretch too short to be steady.
	MatchProg   bool
	ProgSlices  []Slice
	YardSlices  []Slice
	MinLatencyN int // samples each side needs before the run may stop
}

// Interleave alternates program and yardstick slices of every phase
// for at least total, in rounds of one slice pair per phase. Odd rounds
// run the yardstick first, so a drift that is linear over a round
// cancels within each pair; the second slice of a pair repeats the
// operations of the first. Rounds continue past total (up to twice
// it) until every latency phase holds MinLatencyN samples per side.
func Interleave(total time.Duration, phases []*Phase) {
	start := time.Now()
	for round := 0; ; round++ {
		for _, p := range phases {
			if round%2 == 0 {
				ps := p.Prog(p.Budget, nil)
				p.ProgSlices = append(p.ProgSlices, ps)
				p.YardSlices = append(p.YardSlices, p.Yard(p.yardBudget(), ps.Ops))
			} else {
				ys := p.Yard(p.yardBudget(), nil)
				p.YardSlices = append(p.YardSlices, ys)
				p.ProgSlices = append(p.ProgSlices, p.Prog(p.Budget, ys.Ops))
			}
		}
		el := time.Since(start)
		if el >= 2*total || (el >= total && round >= 1 && latencyFull(phases)) {
			return
		}
	}
}

func (p *Phase) yardBudget() time.Duration {
	if p.MatchProg && len(p.ProgSlices) > 0 {
		return p.ProgSlices[len(p.ProgSlices)-1].Dur
	}
	return p.Budget
}

func latencyFull(phases []*Phase) bool {
	for _, p := range phases {
		if p.Latency && (latencies(p.ProgSlices) < p.MinLatencyN || latencies(p.YardSlices) < p.MinLatencyN) {
			return false
		}
	}
	return true
}

func latencies(ss []Slice) int {
	n := 0
	for _, s := range ss {
		n += len(s.Lat)
	}
	return n
}

// TputRatio is program Mpx/s ÷ yardstick Mpx/s. For a phase whose
// pairs all carry the same work it is the median over pairs, which
// discards pairs a host stall hit on one side only; for a Pooled phase,
// whose pairs differ in mix, it is the ratio of the phase totals.
func (p *Phase) TputRatio() float64 {
	if p.Pooled {
		progPx, progDur := Totals(p.ProgSlices)
		yardPx, yardDur := Totals(p.YardSlices)
		return stats.Ratio(float64(progPx), progDur, float64(yardPx), yardDur)
	}
	r := make([]float64, len(p.ProgSlices))
	for i := range r {
		r[i] = stats.Ratio(float64(p.ProgSlices[i].Px), p.ProgSlices[i].Dur,
			float64(p.YardSlices[i].Px), p.YardSlices[i].Dur)
	}
	return stats.Median(r)
}

// Totals sums the pixels and wall time of a side's slices.
func Totals(ss []Slice) (px int64, d time.Duration) {
	for _, s := range ss {
		px += s.Px
		d += s.Dur
	}
	return px, d
}

// LatencyMs flattens a side's per-operation latencies in milliseconds.
func LatencyMs(ss []Slice) []float64 {
	var out []float64
	for _, s := range ss {
		for _, l := range s.Lat {
			out = append(out, float64(l)/1e6)
		}
	}
	return out
}
