package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/udptime"
)

// run blocks until a signal once the server starts, so the error paths
// are tested through run and the happy path through start.
func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "bad flag", args: []string{"-bogus"}},
		{name: "bad address", args: []string{"-addr", "not an address"}},
		{name: "negative initial error", args: []string{"-initial-error", "-1s"}},
		{name: "negative drift", args: []string{"-drift-ppm", "-5"}},
		{name: "NaN drift", args: []string{"-addr", "127.0.0.1:0", "-drift-ppm", "NaN"}},
		{name: "bad address sharded", args: []string{"-shards", "2", "-addr", "not an address"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) accepted", tt.args)
			}
		})
	}
}

// TestBatchAloneServes starts the default server with only -batch set:
// one shard, batched, answering.
func TestBatchAloneServes(t *testing.T) {
	srv, err := start([]string{"-addr", "127.0.0.1:0", "-batch", "16"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", srv.Shards())
	}
	if _, err := udptime.NewClient(time.Second, nil).Query(srv.Addr().String()); err != nil {
		t.Fatal(err)
	}
}

// TestShardedHealth scrapes /healthz from a sharded server and asks it
// a version-3 question: -health, -shards and the whole protocol are one
// server's.
func TestShardedHealth(t *testing.T) {
	srv, err := start([]string{"-addr", "127.0.0.1:0", "-id", "9", "-shards", "2", "-health", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", srv.Shards())
	}
	cl := udptime.NewClient(time.Second, nil, udptime.WithHLC(hlc.New(100)))
	if m, err := cl.Query(srv.Addr().String()); err != nil || m.TS.Node != 9 {
		t.Fatalf("v3 query: %+v, %v", m, err)
	}
	resp, err := http.Get("http://" + srv.HealthAddr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"server_id":9,"requests":1`) {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
}
