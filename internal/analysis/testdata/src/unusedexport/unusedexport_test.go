package fixture

import "testing"

func TestExports(t *testing.T) {
	TestOnly()
	r := Record{Hidden: Limit}
	r.Reset()
	if Verbose || (Widget{}).Size != 0 || (Plain{}).Name() == "" || Oracle() != 7 {
		t.Fatal(r)
	}
}
