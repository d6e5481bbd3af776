package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"disttime/internal/udptime"
)

// TestUDPSmoke is the end-to-end loopback smoke, plain and under
// -race in make test: a live batched server, a short timeload run
// against it, and a text summary whose counters are consistent — zero
// errors, replies received, none beyond what was sent — and which
// prints throughput and all four percentiles.
func TestUDPSmoke(t *testing.T) {
	src, err := udptime.NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := udptime.NewBatchServer("127.0.0.1:0", 11, src,
		udptime.BatchConfig{Shards: 2, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	args := []string{
		"-addr", srv.Addr().String(),
		"-conns", "2",
		"-window", "16",
		"-duration", "100ms",
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput: %s", args, err, out.String())
	}
	var sent, received, timeouts, strays, errs uint64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  sent ") {
			if _, err := fmt.Sscanf(line, "  sent %d  received %d  timeouts %d  strays %d  errors %d",
				&sent, &received, &timeouts, &strays, &errs); err != nil {
				t.Fatalf("counter line %q: %v", line, err)
			}
		}
	}
	if errs != 0 {
		t.Fatalf("smoke run saw errors:\n%s", out.String())
	}
	if received == 0 {
		t.Fatalf("smoke run received nothing:\n%s", out.String())
	}
	if received > sent {
		t.Fatalf("received more than sent:\n%s", out.String())
	}
	for _, needle := range []string{"req/s", "p50", "p90", "p99", "p999"} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("text summary missing %q:\n%s", needle, out.String())
		}
	}
}

// TestRunErrors covers the argument and no-server error paths. A
// non-positive -conns, -window or -duration is refused, not run at
// RunLoad's defaults for an unset field.
func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // in the error; a non-positive flag is refused by name, before RunLoad
	}{
		{name: "bad flag", args: []string{"-bogus"}},
		{name: "empty address", args: []string{"-addr", ""}},
		{name: "unresolvable address", args: []string{"-addr", "not an address"}},
		{name: "zero duration", args: []string{"-duration", "0"}, want: "-duration 0s"},
		{name: "negative duration", args: []string{"-duration", "-1s"}, want: "-duration -1s"},
		{name: "zero conns", args: []string{"-conns", "0"}, want: "-conns 0"},
		{name: "negative conns", args: []string{"-conns", "-2"}, want: "-conns -2"},
		{name: "zero window", args: []string{"-window", "0"}, want: "-window 0"},
		{name: "negative window", args: []string{"-window", "-1"}, want: "-window -1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tt.args, &out)
			if err == nil {
				t.Fatalf("run(%v) accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v): %v, want it to name %q", tt.args, err, tt.want)
			}
		})
	}
}
