// Package floateq exercises the floateq analyzer: == and != on
// floating-point operands are banned outside approved helpers, because
// computed interval endpoints rarely share bit patterns.
package floateq

import "math"

type seconds float64

func bad(a, b float64) bool {
	if a == b { // want `== on floating-point operands`
		return true
	}
	return a != b // want `!= on floating-point operands`
}

// namedType shows the check sees through named types whose underlying
// type is a float.
func namedType(x, y seconds) bool {
	return x == y // want `== on floating-point operands`
}

func mixed(a float64, b int) bool {
	return a == float64(b) // want `== on floating-point operands`
}

func float32too(a, b float32) bool {
	return a == b // want `== on floating-point operands`
}

// packageLevelInit shows comparisons in package-level initializers are
// never allowlisted.
var packageLevelInit = func(a float64) bool {
	return a == 0 // want `== on floating-point operands`
}

// band shows the check sees into a struct: == compares its fields, and
// those are floats.
type band struct{ min, max float64 }

func structOfFloats(a band) bool {
	return a == band{} // want `== on floating-point operands`
}

// arrayOfFloats shows the same for an array's elements.
func arrayOfFloats(a, b [2]seconds) bool {
	return a != b // want `!= on floating-point operands`
}

// ints is fine: only floating-point comparison is hazardous here.
func ints(a, b int) bool { return a == b }

// constants compare exactly at compile time.
func constants() bool { return 1.0 == 2.0 }

// approvedHelper is allowlisted by the test config, standing in for the
// approved epsilon helpers in internal/interval and internal/stats.
func approvedHelper(a, b float64) bool {
	return a == b
}

// edge.Less is allowlisted as a method ("...floateq.edge.Less"),
// standing in for interval's sort tie-break.
type edge struct{ at float64 }

func (e edge) Less(o edge) bool {
	return e.at != o.at
}

// epsilon comparisons never trip the check: there is no ==/!= operator.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9
}
