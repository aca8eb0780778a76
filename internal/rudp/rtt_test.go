package rudp

import (
	"testing"
	"time"
)

func estConn(opts Options) *Conn {
	c := &Conn{opts: opts.withDefaults()}
	c.rto = c.opts.RTO
	return c
}

func TestRTTEstimatorFirstSample(t *testing.T) {
	c := estConn(Options{})
	c.updateRTTLocked(100 * time.Millisecond)
	if c.srtt != 100*time.Millisecond {
		t.Fatalf("SRTT = %v", c.srtt)
	}
	if c.rttvar != 50*time.Millisecond {
		t.Fatalf("RTTVAR = %v", c.rttvar)
	}
	// RFC 6298: RTO = SRTT + 4*RTTVAR = 300ms.
	if c.rto != 300*time.Millisecond {
		t.Fatalf("RTO = %v", c.rto)
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	c := estConn(Options{})
	for i := 0; i < 64; i++ {
		c.updateRTTLocked(40 * time.Millisecond)
	}
	if c.srtt < 39*time.Millisecond || c.srtt > 41*time.Millisecond {
		t.Fatalf("SRTT did not converge: %v", c.srtt)
	}
	// With a steady path the variance decays and RTO approaches SRTT
	// (floored by MinRTO).
	if c.rto > 60*time.Millisecond {
		t.Fatalf("RTO did not tighten on a steady path: %v", c.rto)
	}
	// A latency spike reopens the variance term.
	c.updateRTTLocked(200 * time.Millisecond)
	if c.rto < 80*time.Millisecond {
		t.Fatalf("RTO did not widen after a spike: %v", c.rto)
	}
}

func TestRTTEstimatorClamps(t *testing.T) {
	opts := Options{MinRTO: 10 * time.Millisecond, MaxRTO: 100 * time.Millisecond}
	c := estConn(opts)
	c.updateRTTLocked(time.Microsecond)
	if c.rto != 10*time.Millisecond {
		t.Fatalf("RTO below MinRTO: %v", c.rto)
	}
	c.updateRTTLocked(10 * time.Second)
	if c.rto != 100*time.Millisecond {
		t.Fatalf("RTO above MaxRTO: %v", c.rto)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	opts := Options{RTO: 20 * time.Millisecond, MaxRTO: 100 * time.Millisecond}
	c := estConn(opts)
	want := []time.Duration{20, 40, 80, 100, 100}
	for rtx, w := range want {
		if got := c.backoffRTOLocked(rtx); got != w*time.Millisecond {
			t.Fatalf("backoff(rtx=%d) = %v, want %v", rtx, got, w*time.Millisecond)
		}
	}
}
