package experiments

import "testing"

// TestScaleSweepSmoke runs the registry-sized S1 sweep: the gradient
// assertion inside ScaleSweep is the real check, and two runs must
// render byte-identical tables (the sharded kernel's determinism
// surfacing at the experiment layer).
func TestScaleSweepSmoke(t *testing.T) {
	tbl, err := ScaleSweepSmoke()
	if err != nil {
		t.Fatalf("ScaleSweepSmoke: %v\n%s", err, tbl)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tbl.Rows))
	}
	again, err := ScaleSweepSmoke()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != again.String() {
		t.Fatalf("S1 not deterministic:\n%s\nvs\n%s", tbl, again)
	}
}
