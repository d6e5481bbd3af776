package udptime

import (
	"net"
	"testing"
	"time"

	"disttime/internal/obs"
	"disttime/internal/wire"
)

// TestRunLoadLoopback drives the load generator against a live batched
// server on the loopback and checks the contract cmd/timeload's
// TestUDPSmoke relies on: zero errors, every reply accounted, and monotone
// non-decreasing histogram/counter state across successive runs into
// the same registry.
func TestRunLoadLoopback(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchServer("127.0.0.1:0", 5, src, BatchConfig{Shards: 2, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	hist := reg.LogHistogram("timeload_latency_seconds")
	replies := reg.Counter("timeload_replies_total")

	var prevCount, prevReplies uint64
	for round := 0; round < 3; round++ {
		res, err := RunLoad(LoadConfig{
			Addr:     srv.Addr().String(),
			Conns:    2,
			Window:   16,
			Batch:    16,
			Duration: 80 * time.Millisecond,
			Registry: reg,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Errors != 0 {
			t.Fatalf("round %d: %d errors", round, res.Errors)
		}
		if res.Received == 0 {
			t.Fatalf("round %d: no replies", round)
		}
		if res.Received > res.Sent {
			t.Fatalf("round %d: received %d > sent %d", round, res.Received, res.Sent)
		}
		if res.QPS <= 0 {
			t.Fatalf("round %d: non-positive QPS %v", round, res.QPS)
		}
		// Percentiles come from a histogram of nonnegative samples and
		// must be ordered.
		if res.P50 < 0 || res.P50 > res.P90 || res.P90 > res.P99 || res.P99 > res.P999 {
			t.Fatalf("round %d: percentiles out of order: %v %v %v %v",
				round, res.P50, res.P90, res.P99, res.P999)
		}

		// The registry accumulates across runs: counts never decrease and
		// grow by exactly this run's replies.
		count, total := hist.Count(), replies.Value()
		if count < prevCount || total < prevReplies {
			t.Fatalf("round %d: histogram/counter went backwards: %d < %d or %d < %d",
				round, count, prevCount, total, prevReplies)
		}
		if got := total - prevReplies; got != res.Received {
			t.Fatalf("round %d: reply counter advanced %d, result says %d", round, got, res.Received)
		}
		if got := count - prevCount; got != res.Received {
			t.Fatalf("round %d: histogram observed %d samples, result says %d replies", round, got, res.Received)
		}
		prevCount, prevReplies = count, total
	}
}

// TestRunLoadFixedWork checks MaxRequests mode: the run issues exactly
// the requested number (the benchmark mode's invariant) and completes
// cleanly well before the safety duration.
func TestRunLoadFixedWork(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchServer("127.0.0.1:0", 6, src, BatchConfig{Shards: 1, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const want = 5000
	res, err := RunLoad(LoadConfig{
		Addr:        srv.Addr().String(),
		Conns:       2,
		Window:      32,
		MaxRequests: want,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != want {
		t.Fatalf("sent %d requests, want exactly %d", res.Sent, want)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Received != want && res.Received+res.Timeouts < want {
		t.Fatalf("received %d + timeouts %d < sent %d", res.Received, res.Timeouts, want)
	}
}

// dropFirstResponder is a loopback UDP responder that answers every
// version-1 request but the first one it reads. It returns its address.
func dropFirstResponder(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, maxDatagram)
		var out []byte
		for first := true; ; first = false {
			n, peer, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			req, err := wire.ParseRequest(buf[:n])
			if first || err != nil {
				continue
			}
			out, _ = wire.AppendResponse(out[:0], wire.Response{ReqID: req.ReqID, ServerID: 1, Clock: time.Now()})
			_, _ = conn.WriteToUDPAddrPort(out, peer)
		}
	}()
	return conn.LocalAddr().String()
}

// TestRunLoadReclaimsLostRequest loses one request while the rest of the
// window keeps cycling: its slot must come back, counted as a timeout,
// within about Timeout of the send, not at the drain when the run ends
// (a generator that re-arms its read deadline on every receive and only
// expires a window that goes wholly silent runs one slot short for the
// whole run). Nothing else is lost, so nothing else times out and no
// reply is a stray.
func TestRunLoadReclaimsLostRequest(t *testing.T) {
	const timeout = 50 * time.Millisecond
	addr := dropFirstResponder(t)
	reg := obs.NewRegistry()
	type outcome struct {
		res LoadResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunLoad(LoadConfig{Addr: addr, Window: 8, Timeout: timeout, Duration: 10 * timeout, Registry: reg})
		done <- outcome{res, err}
	}()
	time.Sleep(6 * timeout)
	if got := reg.Counter("timeload_timeouts_total").Value(); got != 1 {
		t.Errorf("timeouts after %v of a %v run = %d, want the lost request's 1", 6*timeout, 10*timeout, got)
	}
	out := <-done
	if out.err != nil || out.res.Errors != 0 {
		t.Fatalf("run: %v, %d errors", out.err, out.res.Errors)
	}
	if r := out.res; r.Timeouts != 1 || r.Strays != 0 || r.Received != r.Sent-1 {
		t.Fatalf("sent %d received %d timeouts %d strays %d, want one timeout, no stray and every other request answered",
			r.Sent, r.Received, r.Timeouts, r.Strays)
	}
}

// slowSource is a ClockSource whose every read takes hold: a server over
// it sends each reply at least hold after the request arrived.
type slowSource struct{ hold time.Duration }

func (s slowSource) Now() (time.Time, time.Duration, bool) {
	time.Sleep(s.hold)
	return time.Now(), time.Millisecond, true
}

// TestRunLoadLatencyBracketsExchange holds the generator's per-train
// stamps to the exchange they time: every reply leaves the server at
// least hold after its request arrived, so a latency under hold means a
// receive stamp taken before the reply was in, and an absurd one means a
// send stamp that belongs to another batch. Every reply is filed once.
func TestRunLoadLatencyBracketsExchange(t *testing.T) {
	const hold = 2 * time.Millisecond
	srv, err := NewBatchServer("127.0.0.1:0", 7, slowSource{hold}, BatchConfig{Shards: 1, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	res, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), Window: 16, Batch: 16, Duration: 100 * time.Millisecond, Registry: reg})
	if err != nil || res.Errors != 0 || res.Received == 0 {
		t.Fatalf("run: %v, %+v", err, res)
	}
	hist := reg.LogHistogram("timeload_latency_seconds")
	if hist.Count() != res.Received {
		t.Fatalf("histogram holds %d latencies, %d replies received", hist.Count(), res.Received)
	}
	for _, b := range hist.Buckets() {
		if b.UpperBound < hold.Seconds() {
			t.Fatalf("%d latencies at or below %vs (0 is the floor bucket), under the %v every reply is held: a stamp misses its exchange",
				b.Count, b.UpperBound, hold)
		}
	}
	if mean := hist.Sum() / float64(hist.Count()); mean > 0.5 {
		t.Fatalf("mean latency %vs against a %v hold: a send stamp from another batch", mean, hold)
	}
}

// TestRunLoadRejectsEmptyAddr pins the config validation path.
func TestRunLoadRejectsEmptyAddr(t *testing.T) {
	if _, err := RunLoad(LoadConfig{}); err == nil {
		t.Fatal("empty address must be rejected")
	}
}

// TestRunLoadWindowLimit pins the slot-aliasing boundary. Reply routing
// embeds the window slot in the request ID's low bits, so MaxWindow is a
// wire-format constant: a window of exactly MaxWindow gives every
// in-flight slot a distinct bit pattern and must run clean against a
// live server, while MaxWindow+1 must be rejected up front — silently
// clamping (the old behavior) would change the measured concurrency,
// and honoring it would let one slot's reply complete another's.
func TestRunLoadWindowLimit(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchServer("127.0.0.1:0", 5, src, BatchConfig{Shards: 2, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    1,
		Window:   MaxWindow,
		Batch:    32,
		Duration: 100 * time.Millisecond,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("window at the limit: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("window at the limit: %d errors", res.Errors)
	}
	if res.Received == 0 {
		t.Fatal("window at the limit: no replies")
	}

	if _, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), Window: MaxWindow + 1}); err == nil {
		t.Fatalf("window %d must be rejected, not clamped", MaxWindow+1)
	}
}
