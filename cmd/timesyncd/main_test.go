package main

import "testing"

// run blocks until a signal once the syncer starts, so only the error
// paths are testable directly; the syncer itself is covered by the
// udptime package tests.
func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "bad flag", args: []string{"-bogus"}},
		{name: "no servers", args: nil},
		{name: "negative drift", args: []string{"-servers", "127.0.0.1:1", "-drift-ppm", "-1"}},
		{name: "NaN drift", args: []string{"-servers", "127.0.0.1:1", "-drift-ppm", "NaN"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) accepted", tt.args)
			}
		})
	}
}
