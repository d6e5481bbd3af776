// Package noalloc exercises the noalloc analyzer: functions annotated
// //lint:noalloc must contain no allocation-causing constructs, with
// error exits and amortized appends exempt.
package noalloc

import "fmt"

//lint:noalloc
func badMake(n int) []int {
	return make([]int, n) // want "make in //lint:noalloc function badMake"
}

//lint:noalloc
func badNew() *int {
	return new(int) // want "new in //lint:noalloc function badNew"
}

//lint:noalloc
func badFreshAppend(v int) []int {
	return append([]int{}, v) // want "append to a fresh slice" "slice literal"
}

//lint:noalloc
func badClosure(n int) func() int {
	return func() int { return n } // want "function literal"
}

type adder struct{ n int }

func (a *adder) add() int { return a.n }

//lint:noalloc
func badMethodValue(a *adder) func() int {
	return a.add // want "method value a.add"
}

func sink(x any) { _ = x }

//lint:noalloc
func badBoxing(v int) {
	sink(v) // want "passing int to an interface parameter"
}

//lint:noalloc
func badIfaceConv(v int) any {
	return any(v) // want "conversion to interface"
}

//lint:noalloc
func badConcat(a, b string) string {
	return a + b // want "string concatenation"
}

//lint:noalloc
func badStringConv(b []byte) string {
	return string(b) // want "string<->byte-slice conversion"
}

//lint:noalloc
func badMapLit() map[string]int {
	return map[string]int{} // want "map literal"
}

//lint:noalloc
func badEscape() *adder {
	return &adder{n: 1} // want "&composite literal"
}

//lint:noalloc
func badSprintf(n int) string {
	return fmt.Sprintf("%d", n) // want "fmt.Sprintf in //lint:noalloc"
}

//lint:noalloc
func badGo(ch chan int) {
	go func() { ch <- 1 }() // want "go statement" "function literal"
}

// steady appends into a caller-retained buffer: amortized-free, no
// diagnostic (false-positive guard).
//
//lint:noalloc
func steady(buf []int, v int) []int {
	return append(buf, v)
}

// errorPath allocates only inside the cold error exit, which is exempt:
// the block ends in a non-nil error return.
//
//lint:noalloc
func errorPath(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("short buffer: %d bytes", len(buf))
	}
	return int(buf[0]), nil
}

// panicPath allocates only to describe a programming error before dying:
// blocks ending in panic are exempt.
//
//lint:noalloc
func panicPath(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative: %d", n))
	}
	return n * 2
}

// suppressedMake documents a deliberate allocation inside an annotated
// function.
//
//lint:noalloc
func suppressedMake() []int {
	//lint:ignore noalloc one-time warmup buffer allocated before the steady state begins
	return make([]int, 8)
}

// unannotated is free to allocate: no annotation, no checks
// (false-positive guard).
func unannotated() []int {
	return make([]int, 4)
}
