// Package writers is the fixture of the field-writer rule
// (TestInternalFieldsHaveWriters): every exported field below is written
// by one form the rule counts, except Planted, which only the package's
// test file sets, and Tagged, which nothing sets but encoding/json may.
package writers

// Rates is a field type with a pointer method.
type Rates struct{ n int }

// Observe records one sample.
func (r *Rates) Observe() { r.n++ }

// Config holds one field per write form.
type Config struct {
	Keyed     int
	Assigned  int
	Indexed   [2]int
	Bumped    int
	Addressed int
	Rates     Rates
	Tagged    int `json:"tagged"`
	Planted   int
}

// Pair is set only by an unkeyed literal.
type Pair struct{ A, B float64 }

var sink *int

// Use writes each field but Planted and Tagged once.
func Use() (Config, Pair) {
	c := Config{Keyed: 1}
	c.Assigned = 2
	c.Indexed[0] = 3
	c.Bumped++
	sink = &c.Addressed
	c.Rates.Observe()
	return c, Pair{1, 2}
}
