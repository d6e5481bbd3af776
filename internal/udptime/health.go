package udptime

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"disttime/internal/obs"
)

// serverObsOption attaches a metrics registry to a Server.
type serverObsOption struct{ reg *obs.Registry }

func (o serverObsOption) applyServer(s *Server) {
	s.reg = o.reg
	if o.reg != nil {
		s.obsRequests = o.reg.Counter("udptime_server_requests_total")
		s.obsMalformed = o.reg.Counter("udptime_server_malformed_total")
		s.obsBatches = o.reg.Counter("udptime_server_batches_total")
		s.obsBatchFill = o.reg.LogHistogram("udptime_server_batch_fill")
		s.obsSendErrs = o.reg.Counter("udptime_server_send_errors_total")
	}
}

// WithServerObservability resolves the server's request, malformed-
// datagram, batch, and send-error counters and its batch-fill histogram
// (datagrams per Recv, which is also requests per clock read) in reg,
// and makes reg the registry the health listener's /metrics endpoint
// exposes. The registry may be shared with clients and syncers in the
// same process.
func WithServerObservability(reg *obs.Registry) ServerOption {
	return serverObsOption{reg: reg}
}

// serverHealthOption arms a health listener on a Server.
type serverHealthOption struct{ addr string }

func (o serverHealthOption) applyServer(s *Server) { s.healthAddr = o.addr }

// WithHealthListener starts an HTTP health listener on addr (e.g.
// "127.0.0.1:0") alongside the UDP service:
//
//	/healthz       liveness plus request counters, as JSON
//	/metrics       Prometheus text exposition of the server's registry
//	/debug/pprof/  the standard profiling endpoints
//
// The handlers are registered on a private mux — nothing touches
// http.DefaultServeMux, so embedding applications keep control of their
// own handler space. The listener shuts down with Close. Without
// WithServerObservability the server creates a private registry so
// /metrics still reports its own counters.
func WithHealthListener(addr string) ServerOption {
	return serverHealthOption{addr: addr}
}

// startHealth binds and serves the health listener. Called from
// newServer after options are applied.
func (s *Server) startHealth() error {
	if s.healthAddr == "" {
		return nil
	}
	if s.reg == nil {
		serverObsOption{reg: obs.NewRegistry()}.applyServer(s)
	}
	ln, err := net.Listen("tcp", s.healthAddr)
	if err != nil {
		return fmt.Errorf("udptime: health listen %q: %w", s.healthAddr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.healthLn = ln
	s.health = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.health.Serve(ln) }()
	return nil
}

// HealthAddr returns the health listener's bound address, or nil when no
// health listener was configured.
func (s *Server) HealthAddr() net.Addr {
	if s.healthLn == nil {
		return nil
	}
	return s.healthLn.Addr()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","server_id":%d,"requests":%d,"malformed":%d}`+"\n",
		s.id, s.requests.Load(), s.malformed.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// closeHealth tears the health listener down; nil-safe.
func (s *Server) closeHealth() {
	if s.health != nil {
		_ = s.health.Close()
	}
}
