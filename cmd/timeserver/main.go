// Command timeserver runs a UDP time server: it answers each request with
// the pair <C, E> of rule MM-1 — its clock value and its current maximum
// error, which deteriorates at the claimed drift rate between restarts.
//
// Usage:
//
//	timeserver -addr 127.0.0.1:3123 -id 1 -initial-error 10ms -drift-ppm 50
//
// Each of -shards serving loops (one by default, more as SO_REUSEPORT
// listeners on one port) moves datagrams in batches of up to -batch
// messages a vector and reads the clock once per received batch: every
// request of a batch was sent before the batch was received and no reply
// leaves before it is sent, so the one reading is rule MM-1's for all of
// them. A shard answering lone queries stays at the per-packet footprint
// until its socket queues a batch.
//
// The server runs until interrupted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disttime/internal/udptime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "timeserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	srv, err := start(args)
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down after %d requests (%d malformed datagrams)",
		srv.Requests(), srv.MalformedDatagrams())
	return srv.Close()
}

// start parses the flags and brings the server up.
func start(args []string) (*udptime.Server, error) {
	fs := flag.NewFlagSet("timeserver", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:3123", "UDP address to listen on")
		id         = fs.Uint64("id", 1, "server identity echoed in responses")
		initialErr = fs.Duration("initial-error", 10*time.Millisecond,
			"error the local clock is trusted to at startup")
		driftPPM = fs.Float64("drift-ppm", 50,
			"claimed drift bound of the local clock, parts per million")
		health = fs.String("health", "",
			"HTTP health listener address (e.g. 127.0.0.1:9123): /healthz, Prometheus /metrics, and pprof")
		shards = fs.Int("shards", 1,
			"serving loops, each reading the clock once per received batch; more than one share the port through SO_REUSEPORT")
		batch = fs.Int("batch", 0,
			"messages per recvmmsg/sendmmsg vector (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	src, err := udptime.NewSystemClock(*initialErr, *driftPPM)
	if err != nil {
		return nil, err
	}
	var opts []udptime.ServerOption
	if *health != "" {
		opts = append(opts, udptime.WithHealthListener(*health))
	}
	srv, err := udptime.NewBatchServer(*addr, *id, src,
		udptime.BatchConfig{Shards: *shards, Batch: *batch}, opts...)
	if err != nil {
		return nil, err
	}
	log.Printf("timeserver %d listening on %v (%d shards, initial error %v, drift bound %v ppm)",
		*id, srv.Addr(), srv.Shards(), *initialErr, *driftPPM)
	if ha := srv.HealthAddr(); ha != nil {
		log.Printf("health listener on http://%v (/healthz, /metrics, /debug/pprof/)", ha)
	}
	return srv, nil
}
