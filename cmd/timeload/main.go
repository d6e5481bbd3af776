// Command timeload is a closed-loop load generator for the UDP time
// service: N connections each keep a window of requests in flight
// against a live server, batching sends and receives, and the run ends
// with throughput and latency percentiles from the HDR histogram the
// run recorded into.
//
// Usage:
//
//	timeload -addr 127.0.0.1:3123 -conns 4 -window 64 -duration 5s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"disttime/internal/udptime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "timeload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("timeload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:3123", "server UDP address")
		conns    = fs.Int("conns", 1, "concurrent client connections")
		window   = fs.Int("window", 32, "in-flight requests per connection (max 1024)")
		duration = fs.Duration("duration", time.Second, "run duration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// RunLoad reads a zero field as unset and supplies its default; a
	// value typed on the command line is never unset.
	switch {
	case *conns <= 0:
		return fmt.Errorf("-conns %d: must be positive", *conns)
	case *window <= 0:
		return fmt.Errorf("-window %d: must be positive", *window)
	case *duration <= 0:
		return fmt.Errorf("-duration %v: must be positive", *duration)
	}

	cfg := udptime.LoadConfig{
		Addr:     *addr,
		Conns:    *conns,
		Window:   *window,
		Duration: *duration,
	}
	res, err := udptime.RunLoad(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "timeload %s: %d conns x window %d\n", *addr, cfg.Conns, cfg.Window)
	fmt.Fprintf(out, "  sent %d  received %d  timeouts %d  strays %d  errors %d\n",
		res.Sent, res.Received, res.Timeouts, res.Strays, res.Errors)
	fmt.Fprintf(out, "  elapsed %v  throughput %.0f req/s\n", res.Elapsed.Round(time.Millisecond), res.QPS)
	fmt.Fprintf(out, "  latency p50 %v  p90 %v  p99 %v  p999 %v\n", res.P50, res.P90, res.P99, res.P999)
	if res.Received == 0 && res.Sent > 0 {
		return errors.New("no replies received")
	}
	return nil
}
