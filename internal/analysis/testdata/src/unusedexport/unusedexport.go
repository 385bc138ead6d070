// Package fixture exercises the unusedexport analyzer: loaded by the
// golden test under an internal/ import path, where an export that no
// non-test file references is flagged. unusedexport_test.go stands for
// the tests that are the flagged exports' only users; the suite never
// loads it.
package fixture

import "fmt"

// Used is called by the fixture's own code below — fine.
func Used() int { return 1 }

// TestOnly has no non-test user — flagged.
func TestOnly() {}

// Limit and Verbose are read only by tests — both flagged.
const Limit = 3

var Verbose bool

// Widget is a type only tests name — flagged, and so is its field.
type Widget struct {
	Size int
}

// Record is used; its Hidden field is read only by tests — flagged.
type Record struct {
	Kept   int
	Hidden int
}

// Reset is a test-only method — flagged.
func (r *Record) Reset() { *r = Record{} }

// String makes Record a fmt.Stringer, callable through that interface —
// fine.
func (r Record) String() string { return fmt.Sprint(r.Kept) }

// Shape is a fixture interface the code below calls through.
type Shape interface {
	Area() int
}

// Square is used as a Shape.
type Square struct{}

// Area satisfies Shape — fine, though no code names Square.Area.
func (Square) Area() int { return 4 }

// Labeled has a method named Name, and also Kind.
type Labeled interface {
	Name() string
	Kind() int
}

func kind(l Labeled) int { return l.Kind() }

// Plain is used, but it has no Kind method, so it is not Labeled.
type Plain struct{}

// Name only shares its name with Labeled's method — flagged.
func (Plain) Name() string { return "plain" }

// Oracle is kept for another package's tests, with a reviewed reason.
//
//yalalint:ignore unusedexport fixture demonstrates a reviewed keep
func Oracle() int { return 7 }

func use() string {
	var s Shape = Square{}
	r := Record{Kept: Used() + s.Area()}
	_ = Plain{}
	return fmt.Sprint(r)
}
