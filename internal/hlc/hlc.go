// Package hlc implements hybrid logical clocks layered on the paper's
// bounded-error intervals: a Timestamp whose physical component is drawn
// from the clock's <C, E> interval (its latest bound C+E, so a reading
// taken at true time t always stamps at least t), a logical counter that
// breaks ties among events sharing a physical value, and a node ID that
// makes Compare a strict total order across servers.
//
// The algorithm is the hybrid logical clock of Kulkarni et al. (see
// PAPERS.md): on every local event or send, the physical component
// becomes max(last, now); on every receive it becomes max(last, remote,
// now); the logical counter resets to zero whenever the physical
// component advances and increments otherwise. Two invariants follow:
//
//   - happens-before implies timestamp order: a message's timestamp is
//     folded into the receiver via Update before the receiver stamps
//     anything later, so every causal chain is strictly increasing;
//   - the physical component never falls behind the local interval's
//     latest bound, and while all clocks are contained (Theorems 1/5)
//     it never runs ahead of true time by more than the worst E plus
//     the message latency, which bounds the logical counter.
//
// The combination is what the commit-wait workload (internal/txn)
// needs: timestamps ordered by causality, anchored to interval edges
// that WaitUntilAfter can compare against C - E.
package hlc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// TimestampSize is the exact encoded size of a Timestamp: wall int64,
// logical uint32, node uint32, big endian.
const TimestampSize = 16

// ErrShort reports a timestamp buffer shorter than TimestampSize.
var ErrShort = errors.New("hlc: timestamp buffer too short")

// ErrBadWall reports an encoded physical component outside int64's
// non-negative range (the codec never produces one).
var ErrBadWall = errors.New("hlc: negative wall component")

// Timestamp is one hybrid logical/interval clock reading. The zero value
// orders before every timestamp a Clock can issue.
type Timestamp struct {
	// Wall is the physical component in nanoseconds: the maximum of the
	// issuing clock's latest bound C+E and every physical component the
	// clock has observed.
	Wall int64
	// Logical is the logical counter, reset whenever Wall advances.
	Logical uint32
	// Node is the issuing server's ID, the final tiebreak.
	Node uint32
}

// Compare orders timestamps: by Wall, then Logical, then Node. It
// returns -1, 0, or +1. Timestamps issued by distinct nodes never
// compare equal, so the order is total and strict across a service.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Wall != o.Wall:
		if t.Wall < o.Wall {
			return -1
		}
		return 1
	case t.Logical != o.Logical:
		if t.Logical < o.Logical {
			return -1
		}
		return 1
	case t.Node != o.Node:
		if t.Node < o.Node {
			return -1
		}
		return 1
	}
	return 0
}

// Before reports t < o in the total order.
func (t Timestamp) Before(o Timestamp) bool { return t.Compare(o) < 0 }

// IsZero reports the zero timestamp (never issued by a Clock).
func (t Timestamp) IsZero() bool { return t == Timestamp{} }

// WallSeconds returns the physical component in seconds, the unit of the
// simulated substrate's readings.
func (t Timestamp) WallSeconds() float64 { return float64(t.Wall) / 1e9 }

// String renders the timestamp as wall-seconds:logical@node with
// nanosecond precision, e.g. "12.345678901:3@2".
func (t Timestamp) String() string {
	sec, ns := t.Wall/1e9, t.Wall%1e9
	if ns < 0 { // negative walls cannot be issued, but render faithfully
		sec, ns = sec-1, ns+1e9
	}
	return fmt.Sprintf("%d.%09d:%d@%d", sec, ns, t.Logical, t.Node)
}

// WallFromSeconds converts a reading in seconds (the simulated
// substrate's unit) to the nanosecond wall component, rounding to the
// nearest nanosecond so equal float readings map to equal walls.
func WallFromSeconds(s float64) int64 { return int64(math.Round(s * 1e9)) }

// Clock is one node's hybrid logical clock state. It is safe for
// concurrent use: the simulated substrate drives it from the
// single-threaded event loop, the UDP substrate from concurrent serve
// and sync goroutines.
type Clock struct {
	mu   sync.Mutex
	last Timestamp // guarded by mu
}

// New returns a clock issuing timestamps tagged with node. The first
// timestamp issued is strictly later than the zero Timestamp.
func New(node uint32) *Clock {
	return &Clock{last: Timestamp{Node: node}}
}

// Node returns the clock's node ID.
func (c *Clock) Node() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last.Node
}

// Last returns the most recent timestamp issued or observed (the zero
// timestamp with the node ID before the first event).
func (c *Clock) Last() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Now issues the timestamp of a local event or send. wall is the
// caller's current physical reading in nanoseconds (the interval's
// latest bound C+E on both substrates); the issued timestamp is
// strictly later than every previous one from this clock.
func (c *Clock) Now(wall int64) Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wall > c.last.Wall {
		c.last.Wall = wall
		c.last.Logical = 0
	} else {
		c.last.Logical++
	}
	return c.last
}

// Update folds a received remote timestamp into the clock and issues the
// receive event's timestamp: strictly later than both the remote
// timestamp and every previous local one, so happens-before chains are
// strictly increasing.
func (c *Clock) Update(wall int64, remote Timestamp) Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case wall > c.last.Wall && wall > remote.Wall:
		c.last.Wall = wall
		c.last.Logical = 0
	case c.last.Wall > remote.Wall:
		c.last.Logical++
	case remote.Wall > c.last.Wall:
		c.last.Wall = remote.Wall
		c.last.Logical = remote.Logical + 1
	default: // local and remote walls equal, both >= wall
		if remote.Logical > c.last.Logical {
			c.last.Logical = remote.Logical
		}
		c.last.Logical++
	}
	return c.last
}

// PutTimestamp encodes ts into buf[0:TimestampSize], big endian.
func PutTimestamp(buf []byte, ts Timestamp) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(ts.Wall))
	binary.BigEndian.PutUint32(buf[8:12], ts.Logical)
	binary.BigEndian.PutUint32(buf[12:16], ts.Node)
}

// ParseTimestamp decodes a timestamp from buf[0:TimestampSize]. A wall
// component outside int64's non-negative range is rejected: the codec
// never produces one, so it marks a corrupted or hostile datagram.
func ParseTimestamp(buf []byte) (Timestamp, error) {
	if len(buf) < TimestampSize {
		return Timestamp{}, fmt.Errorf("%w: %d bytes", ErrShort, len(buf))
	}
	wall := binary.BigEndian.Uint64(buf[0:8])
	if wall > math.MaxInt64 {
		return Timestamp{}, fmt.Errorf("%w: %#x", ErrBadWall, wall)
	}
	return Timestamp{
		Wall:    int64(wall),
		Logical: binary.BigEndian.Uint32(buf[8:12]),
		Node:    binary.BigEndian.Uint32(buf[12:16]),
	}, nil
}
