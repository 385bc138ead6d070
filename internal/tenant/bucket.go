package tenant

import (
	"math"
	"sync"
	"time"
)

// Bucket is a token-bucket rate limiter: capacity Burst tokens,
// refilled at Rate tokens per second from the elapsed monotonic clock
// on each Allow call — no background refill goroutine to leak or to
// wake idle processes. The zero Bucket is not usable; construct with
// NewBucket.
//
// The invariant property tests pin: across any window, the number of
// granted requests never exceeds burst + rate·elapsed, and the token
// balance never goes negative — concurrent Allow calls can interleave
// but can never jointly overdraw.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; > 0
	burst  float64 // bucket capacity; >= 1
	tokens float64
	last   time.Time
}

// NewBucket builds a full bucket granting rate requests per second
// sustained with bursts up to burst. rate must be positive (a tenant
// with no limit simply has no bucket); burst below 1 is raised to 1 so
// a configured tenant can always make at least one request.
func NewBucket(rate, burst float64) *Bucket {
	if burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Rate returns the sustained refill rate (tokens per second).
func (b *Bucket) Rate() float64 { return b.rate }

// Burst returns the bucket capacity.
func (b *Bucket) Burst() float64 { return b.burst }

// Allow consumes one token if available. When the bucket is empty it
// returns false and how long the caller must wait for the next token,
// at most maxRetryAfter — the Retry-After the admission gate
// advertises. now should come from time.Now() so the refill reads the
// monotonic clock; out-of-order timestamps (concurrent callers racing
// past each other) never refill backwards and never push the balance
// negative.
func (b *Bucket) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Time until the deficit refills to one whole token, rounded up so
	// waiting it out always earns the token.
	wait := math.Ceil((1 - b.tokens) / b.rate * float64(time.Second))
	if wait >= float64(maxRetryAfter) {
		return false, maxRetryAfter
	}
	return false, time.Duration(wait)
}

// maxRetryAfter caps the wait a refusal advertises. A tenant file may
// set any positive rate, and one token's refill time at a tiny rate
// overflows time.Duration; a longer wait tells a client nothing an hour
// does not.
const maxRetryAfter = time.Hour
