package core

import (
	"time"

	"github.com/gbooster/gbooster/internal/rudp"
)

// qualityLadder maps live transport congestion signals to a turbo
// quality setting. The encoder's configured quality is the ladder's
// ceiling; under congestion the ladder steps down toward the floor in
// multiplicative-ish decrements (sheds bytes fast), and climbs back in
// small additive increments after consecutive clean samples (probes
// gently, like AIMD). The quality byte in every turbo packet header
// carries each step to the decoder, so no side channel is needed.
type qualityLadder struct {
	ceiling int
	floor   int
	current int

	// Deltas are computed against the previous observation; the first
	// sample only primes them (a restarted ladder must not mistake
	// lifetime counters for fresh congestion).
	prevResent int64
	prevDrops  int64
	primed     bool

	// cleanRuns counts consecutive congestion-free samples; recovery
	// starts after two so a single quiet gap between loss bursts does
	// not bounce quality up and straight back down.
	cleanRuns int

	stepsDown int64
	stepsUp   int64
}

func newQualityLadder(ceiling, floor int) *qualityLadder {
	if floor < 1 {
		floor = 1
	}
	if floor > ceiling {
		floor = ceiling
	}
	return &qualityLadder{ceiling: ceiling, floor: floor, current: ceiling}
}

// congestionSlack is added to the doubled MinSRTT baseline before SRTT
// counts as congested, so jitter on very fast paths (MinSRTT near zero)
// does not read as queueing delay.
const congestionSlack = 10 * time.Millisecond

// observe folds one transport snapshot into the ladder and returns the
// quality the encoder should use now. Congestion is any of: new
// retransmits, new receive-queue drops, a send window at least half
// full, or a smoothed RTT more than twice the lifetime minimum (plus
// slack) — i.e. queueing delay, not path length.
func (l *qualityLadder) observe(st rudp.Stats) int {
	resent, drops := st.DataResent, st.RecvQueueDrops
	if !l.primed {
		l.prevResent, l.prevDrops = resent, drops
		l.primed = true
		return l.current
	}
	congested := resent > l.prevResent ||
		drops > l.prevDrops ||
		(st.WindowLimit > 0 && st.WindowOccupancy*2 >= st.WindowLimit) ||
		(st.MinSRTT > 0 && st.SRTT > 2*st.MinSRTT+congestionSlack)
	l.prevResent, l.prevDrops = resent, drops

	if congested {
		l.cleanRuns = 0
		if l.current > l.floor {
			step := l.current / 6
			if step < 5 {
				step = 5
			}
			l.current -= step
			if l.current < l.floor {
				l.current = l.floor
			}
			l.stepsDown++
		}
		return l.current
	}
	l.cleanRuns++
	if l.cleanRuns >= 2 && l.current < l.ceiling {
		l.current += 3
		if l.current > l.ceiling {
			l.current = l.ceiling
		}
		l.stepsUp++
	}
	return l.current
}
