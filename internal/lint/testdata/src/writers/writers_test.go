package writers

import "testing"

// A test's write does not count: Planted stays unwritten.
func TestPlanted(t *testing.T) {
	c, _ := Use()
	c.Planted = 1
	if c.Planted != 1 {
		t.Fatal(c.Planted)
	}
}
