package traffic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestProfileStringPinned pins Profile.String to literals and to the
// fmt formula it was born as. The text is not cosmetic: it is embedded
// in every response-cache key, in the feedback controller's scenario
// keys and in the placement simulator's co-run memo keys, and serve's
// reload eviction parses it back out — so a renderer that prints one
// float differently silently splits or aliases cache entries.
func TestProfileStringPinned(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want string
	}{
		{Default, "(16000, 1500, 600)"},
		{Profile{}, "(0, 0, 0)"},
		{Profile{Flows: 1, PktSize: 64, MTBR: 0.1}, "(1, 64, 0.1)"},
		{Profile{Flows: 500000, PktSize: 9216, MTBR: 1e-7}, "(500000, 9216, 1e-07)"},
		{Profile{Flows: 4000, PktSize: 256, MTBR: 1e21}, "(4000, 256, 1e+21)"},
		{Profile{Flows: 4000, PktSize: 256, MTBR: 1e20}, "(4000, 256, 1e+20)"},
		{Profile{Flows: 64000, PktSize: 1024, MTBR: 12345.678}, "(64000, 1024, 12345.678)"},
		{Profile{Flows: 16000, PktSize: 1500, MTBR: 100000}, "(16000, 1500, 100000)"},
		{Profile{Flows: 16000, PktSize: 1500, MTBR: 1234567}, "(16000, 1500, 1.234567e+06)"},
		{Profile{Flows: -3, PktSize: -64, MTBR: -2.5}, "(-3, -64, -2.5)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.Inf(1)}, "(1, 1, +Inf)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.Inf(-1)}, "(1, 1, -Inf)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.NaN()}, "(1, 1, NaN)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.Copysign(0, -1)}, "(1, 1, -0)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.SmallestNonzeroFloat64}, "(1, 1, 5e-324)"},
		{Profile{Flows: 1, PktSize: 1, MTBR: math.MaxFloat64}, "(1, 1, 1.7976931348623157e+308)"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("%#v renders %q, want %q", tc.p, got, tc.want)
		}
	}

	// Arbitrary bit patterns — denormals, infinities and NaNs among them
	// — must render exactly as "(%d, %d, %g)" does.
	rng := sim.NewRNG(0x70696e)
	check := func(p Profile) {
		t.Helper()
		if got, want := p.String(), fmt.Sprintf("(%d, %d, %g)", p.Flows, p.PktSize, p.MTBR); got != want {
			t.Fatalf("%#v (MTBR bits %#x) renders %q, the fmt formula %q", p, math.Float64bits(p.MTBR), got, want)
		}
	}
	for i := 0; i < 10000; i++ {
		bits := rng.Uint64()
		switch i % 8 {
		case 5: // denormal: zero exponent, random mantissa
			bits &^= 0x7ff << 52
		case 6: // ±Inf
			bits = bits&(1<<63) | 0x7ff<<52
		case 7: // a value a request could carry
			bits = math.Float64bits(rng.Range(0, 1100))
		}
		check(Profile{Flows: int(int32(rng.Uint64())), PktSize: int(int16(rng.Uint64())), MTBR: math.Float64frombits(bits)})
	}
}
