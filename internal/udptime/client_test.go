package udptime

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// wireVersions runs f against a version-1 client and a version-3 one.
func wireVersions(t *testing.T, f func(t *testing.T, opts ...ClientOption)) {
	t.Run("v1", func(t *testing.T) { f(t) })
	t.Run("v3", func(t *testing.T) { f(t, WithHLC(hlc.New(100))) })
}

// scriptedServer is a bound socket the test answers by hand, so it
// decides when a reply leaves, and from where.
type scriptedServer struct {
	t    *testing.T
	conn *net.UDPConn
}

func newScriptedServer(t *testing.T) scriptedServer {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return scriptedServer{t, conn}
}

func (s scriptedServer) addr() string { return s.conn.LocalAddr().String() }

// request waits for the next request and returns it, as it arrived, with
// the address it came from.
func (s scriptedServer) request() ([]byte, netip.AddrPort) {
	s.t.Helper()
	buf := make([]byte, maxDatagram)
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, from, err := s.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		s.t.Fatal(err)
	}
	return buf[:n], from
}

// reply answers req, in req's wire version, as server id.
func (s scriptedServer) reply(req []byte, to netip.AddrPort, id uint64) {
	s.t.Helper()
	resp := wire.Response{ServerID: id, Clock: time.Now(), MaxError: time.Millisecond}
	var out []byte
	var err error
	if typ, _ := wire.PeekType(req); typ == wire.TypeRequestHLC {
		var r wire.RequestHLC
		if r, err = wire.ParseRequestHLC(req); err == nil {
			resp.ReqID = r.ReqID
			out, err = wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: resp, TS: hlc.Timestamp{Wall: resp.Clock.UnixNano(), Node: uint32(id)}})
		}
	} else {
		var r wire.Request
		if r, err = wire.ParseRequest(req); err == nil {
			resp.ReqID = r.ReqID
			out, err = wire.AppendResponse(nil, resp)
		}
	}
	if err != nil {
		s.t.Fatal(err)
	}
	if _, err := s.conn.WriteToUDPAddrPort(out, to); err != nil {
		s.t.Fatal(err)
	}
}

// answerNext runs query, which sends one request to s, on its own
// goroutine, answers the request as server id, and returns what query
// returned.
func (s scriptedServer) answerNext(id uint64, query func() (Measurement, error)) (Measurement, error) {
	s.t.Helper()
	type result struct {
		m   Measurement
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := query()
		done <- result{m, err}
	}()
	req, to := s.request()
	s.reply(req, to, id)
	r := <-done
	return r.m, r.err
}

func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// TestLateReplyIsStray pins what a long-lived socket adds: the reply to
// a request that timed out is still delivered, to the next round on the
// socket. That round must count it as a stray and take the reply to its
// own request.
func TestLateReplyIsStray(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		reg := obs.NewRegistry()
		srv := newScriptedServer(t)
		client := NewClient(50*time.Millisecond, nil, append(opts, WithClientObservability(reg))...)
		defer client.Close()

		if _, err := client.Query(srv.addr()); !isTimeout(err) {
			t.Fatalf("query of a silent server: %v, want a timeout", err)
		}
		late, to := srv.request()
		srv.reply(late, to, 1)

		client.mu.Lock()
		client.cfg.timeout = 5 * time.Second
		client.mu.Unlock()
		m, err := srv.answerNext(2, func() (Measurement, error) { return client.Query(srv.addr()) })
		if err != nil {
			t.Fatal(err)
		}
		if m.ServerID != 2 {
			t.Errorf("measurement from reply %d, want 2: the late reply 1 answers no request of this round", m.ServerID)
		}
		if got := reg.Counter("udptime_client_stray_datagrams_total").Value(); got != 1 {
			t.Errorf("strays = %d, want 1", got)
		}
	})
}

// TestWrongSourceIsStray: a datagram that echoes the request's ID but
// comes from another address than the request went to answers nothing.
func TestWrongSourceIsStray(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		reg := obs.NewRegistry()
		srv, impostor := newScriptedServer(t), newScriptedServer(t)
		client := NewClient(5*time.Second, nil, append(opts, WithClientObservability(reg))...)
		defer client.Close()

		query := func() (Measurement, error) { return client.Query(srv.addr()) }
		done := make(chan error, 1)
		go func() {
			m, err := query()
			if err == nil && m.ServerID != 1 {
				err = fmt.Errorf("measurement from server %d, want 1", m.ServerID)
			}
			done <- err
		}()
		req, to := srv.request()
		impostor.reply(req, to, 666)
		srv.reply(req, to, 1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// Should the two datagrams have swapped on the way, the impostor's
		// waits on the socket for the next round.
		if _, err := srv.answerNext(1, query); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("udptime_client_stray_datagrams_total").Value(); got != 1 {
			t.Errorf("strays = %d, want 1", got)
		}
	})
}

func TestQueryManySameAddressTwice(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		srv := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
		client := NewClient(2*time.Second, nil, opts...)
		defer client.Close()
		addr := srv.Addr().String()
		ms, err := client.QueryMany([]string{addr, addr})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 || srv.Requests() != 2 {
			t.Errorf("%d measurements of %d requests, want 2 of 2", len(ms), srv.Requests())
		}
	})
}

// TestQueryManyOneTimeout: the round has one deadline, so a silent server
// among three costs one timeout, whatever its place in the list, and the
// other two measurements come back in order.
func TestQueryManyOneTimeout(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		const timeout = 200 * time.Millisecond
		reg := obs.NewRegistry()
		a := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
		b := startServer(t, 2, shiftedClock{err: time.Millisecond, synced: true})
		silent := newScriptedServer(t)
		client := NewClient(timeout, nil, append(opts, WithClientObservability(reg))...)
		defer client.Close()

		start := time.Now()
		ms, err := client.QueryMany([]string{a.Addr().String(), silent.addr(), b.Addr().String()})
		took := time.Since(start)
		if !isTimeout(err) {
			t.Errorf("error %v, want a timeout", err)
		}
		if len(ms) != 2 || ms[0].ServerID != 1 || ms[1].ServerID != 2 {
			t.Errorf("measurements %+v, want servers 1 and 2", ms)
		}
		if took < timeout || took >= 2*timeout {
			t.Errorf("round took %v, want one timeout of %v", took, timeout)
		}
		if got := reg.Counter("udptime_client_timeouts_total").Value(); got != 1 {
			t.Errorf("timeouts = %d, want 1", got)
		}
	})
}

func TestClientClose(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	client := NewClient(time.Second, nil)
	if _, err := client.Query(srv.Addr().String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := client.Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
	if _, err := client.Query(srv.Addr().String()); !errors.Is(err, net.ErrClosed) {
		t.Errorf("query after Close: %v, want net.ErrClosed", err)
	}
}

// TestIdleSocketsCapped: however many rounds ran at once, the client
// keeps maxIdleSocks sockets and closes the rest as they come back.
func TestIdleSocketsCapped(t *testing.T) {
	client := NewClient(time.Second, nil)
	defer client.Close()
	var socks []*clientSock
	for i := 0; i < maxIdleSocks+2; i++ {
		_, s, err := client.checkout()
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, s)
	}
	for _, s := range socks {
		client.checkin(s)
	}
	if got := len(client.idle); got != maxIdleSocks {
		t.Errorf("%d idle sockets, want %d", got, maxIdleSocks)
	}
	for i, s := range socks {
		err := s.conn.SetDeadline(time.Time{})
		if closed := errors.Is(err, net.ErrClosed); closed != (i >= maxIdleSocks) {
			t.Errorf("socket %d: SetDeadline = %v", i, err)
		}
	}
}

// TestClientAllocs: once its socket exists, a query to a literal address
// allocates nothing, and a QueryMany only the slice it returns.
func TestClientAllocs(t *testing.T) {
	wireVersions(t, func(t *testing.T, opts ...ClientOption) {
		var addrs []string
		for id := uint64(1); id <= 3; id++ {
			addrs = append(addrs, startServer(t, id, shiftedClock{err: time.Millisecond, synced: true}).Addr().String())
		}
		client := NewClient(2*time.Second, nil, opts...)
		defer client.Close()
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := client.Query(addrs[0]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Query allocates %v times, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if ms, err := client.QueryMany(addrs); err != nil || len(ms) != len(addrs) {
				t.Fatal(ms, err)
			}
		}); allocs > 1 {
			t.Errorf("QueryMany allocates %v times, want at most the slice it returns", allocs)
		}
	})
}

// FuzzClientReply feeds the reply-matching step arbitrary datagrams from
// arbitrary sources while three requests are outstanding: it must not
// panic, and may match only a well-formed reply of the round's version
// whose ID and source are those of a request still open.
func FuzzClientReply(f *testing.F) {
	to := netip.MustParseAddrPort("127.0.0.1:4460")
	s := &clientSock{reqs: []request{
		{id: 1, to: to},
		{id: 2, to: to, done: true},
		{id: 3, to: to, err: net.ErrClosed},
		{id: 4, to: netip.MustParseAddrPort("[fe80::1%lo]:4460")},
	}}
	v1, _ := wire.AppendResponse(nil, wire.Response{ReqID: 1, ServerID: 9, Clock: time.Unix(1, 0)})
	v3, _ := wire.AppendResponseHLC(nil, wire.ResponseHLC{Response: wire.Response{ReqID: 4, Clock: time.Unix(1, 0)}})
	f.Add(v1, []byte{127, 0, 0, 1}, uint16(4460), false)
	f.Add(v1, []byte{127, 0, 0, 2}, uint16(4460), false)
	f.Add(v1[:len(v1)-1], []byte{127, 0, 0, 1}, uint16(4460), false)
	f.Add(v3, to.Addr().AsSlice(), uint16(4460), true)
	f.Add(v3, netip.MustParseAddr("fe80::1").AsSlice(), uint16(4460), true)
	f.Add(v3, netip.MustParseAddr("::ffff:127.0.0.1").AsSlice(), uint16(4460), true)
	f.Fuzz(func(t *testing.T, b, ip []byte, port uint16, v3 bool) {
		addr, _ := netip.AddrFromSlice(ip)
		from := netip.AddrPortFrom(addr, port)
		i, resp := s.match(v3, b, from)
		if i < 0 {
			return
		}
		r := s.reqs[i]
		var want wire.ResponseHLC
		var err error
		if v3 {
			want, err = wire.ParseResponseHLC(b)
		} else {
			want.Response, err = wire.ParseResponse(b)
		}
		if err != nil || resp != want {
			t.Fatalf("matched %+v, but the datagram parses as %+v, %v", resp, want, err)
		}
		if r.done || r.err != nil || r.id != resp.ReqID {
			t.Fatalf("reply %d matched request %+v", resp.ReqID, r)
		}
		if from.Port() != r.to.Port() || from.Addr().Unmap() != r.to.Addr().WithZone("") {
			t.Fatalf("reply from %v matched the request sent to %v", from, r.to)
		}
	})
}
