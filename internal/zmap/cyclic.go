// Package zmap implements a zmap-style high-speed ICMPv6 prober: random
// scan order from a multiplicative cyclic group, sharding, token-bucket
// pacing, and a send/receive pipeline over pluggable transports.
//
// The paper probes with "the zmap6 IPv6 extensions to the high-speed zmap
// prober" at 10k packets per second (§3.1). Its two essential properties,
// which this package reproduces, are: (1) targets are visited in a random
// order with O(1) state, so ICMPv6 rate limiting at any single device or
// router is not triggered by probe bursts (§7); and (2) responses are
// matched back to probes by validation fields, so spoofed or stale
// packets are discarded.
package zmap

import (
	"fmt"
	"math/bits"
)

// Cycle enumerates 0..n-1 in a pseudorandom order using the
// multiplicative group of integers modulo a prime, exactly as zmap does:
// pick the smallest prime p > n, a generator g of (Z/pZ)*, and a random
// starting exponent; then successive multiplications by g visit every
// element of [1, p-1] once. Values above n are skipped ("cycle groups
// slightly larger than the domain", Durumeric et al. 2013).
type Cycle struct {
	n     uint64 // domain size
	p     uint64 // prime > n
	g     uint64 // generator of the multiplicative group mod p
	start uint64 // first element emitted (g^seed)
	cur   uint64
	done  bool
	// pinv = floor(2^64 / p): the Barrett constant that turns the hot
	// loop's reduction mod p into two multiplies instead of a DIV.
	pinv uint64
}

// maxCycleDomain bounds the domain so p fits in 32 bits and products fit
// in uint64 without 128-bit reduction.
const maxCycleDomain = 1<<32 - 6

// NewCycle returns a permutation of [0, n) seeded by seed.
func NewCycle(n uint64, seed uint64) (*Cycle, error) {
	p, g, err := cycleGroup(n)
	if err != nil {
		return nil, err
	}
	return newCycleFromGroup(n, p, g, seed), nil
}

// cycleGroup finds the multiplicative group for a domain: the smallest
// prime p > n and a generator of (Z/pZ)*. The search depends only on n,
// so callers walking the same domain repeatedly (one stream per worker
// per scan) can cache the pair and skip the primality and
// factorization work.
func cycleGroup(n uint64) (p, g uint64, err error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("zmap: empty cycle domain")
	}
	if n > maxCycleDomain {
		return 0, 0, fmt.Errorf("zmap: cycle domain %d exceeds %d", n, maxCycleDomain)
	}
	p = nextPrime(n + 1) // p > n so indices 1..n are all in the group
	g, err = findGenerator(p)
	if err != nil {
		return 0, 0, err
	}
	return p, g, nil
}

// newCycleFromGroup builds a cycle over a precomputed group.
func newCycleFromGroup(n, p, g, seed uint64) *Cycle {
	// Start at a seed-dependent group element (never the identity's
	// predecessor pattern): g^(seed mod (p-1)) with exponent >= 1.
	e := seed%(p-1) + 1
	start := powMod(g, e, p)
	c := &Cycle{n: n, p: p, g: g, start: start, cur: start}
	c.pinv, _ = bits.Div64(1, 0, p) // floor(2^64 / p); p >= 2
	return c
}

// Len returns the domain size.
func (c *Cycle) Len() uint64 { return c.n }

// Next returns the next index in [0, n) and false when the cycle has
// completed a full pass over the domain.
func (c *Cycle) Next() (uint64, bool) {
	for {
		if c.done {
			return 0, false
		}
		v := c.cur
		// Barrett reduction of cur*g mod p: q estimates the quotient to
		// within one, so at most one correcting subtraction is needed.
		prod := c.cur * c.g
		q, _ := bits.Mul64(prod, c.pinv)
		r := prod - q*c.p
		if r >= c.p {
			r -= c.p
		}
		c.cur = r
		if c.cur == c.start {
			c.done = true
		}
		if v-1 < c.n { // group elements are 1..p-1; domain is 0..n-1
			return v - 1, true
		}
	}
}

// Reset rewinds the cycle to its start.
func (c *Cycle) Reset() {
	c.cur = c.start
	c.done = false
}

// mulMod returns a*b mod m for m < 2^32.
func mulMod(a, b, m uint64) uint64 {
	return a * b % m
}

// powMod returns a^e mod m for m < 2^32.
func powMod(a, e, m uint64) uint64 {
	r := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			r = mulMod(r, a, m)
		}
		a = mulMod(a, a, m)
		e >>= 1
	}
	return r
}

// isPrime is a deterministic Miller-Rabin test, valid for all 64-bit
// inputs with the fixed base set below.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := uint(0)
	for d&1 == 0 {
		d >>= 1
		r++
	}
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powMod64(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := uint(0); i < r-1; i++ {
			x = mulMod64(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// mulMod64 computes a*b mod m for full 64-bit operands.
func mulMod64(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m)
	return r
}

func powMod64(a, e, m uint64) uint64 {
	r := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			r = mulMod64(r, a, m)
		}
		a = mulMod64(a, a, m)
		e >>= 1
	}
	return r
}

// nextPrime returns the smallest prime >= n.
func nextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !isPrime(n) {
		n += 2
	}
	return n
}

// primeFactors returns the distinct prime factors of n by trial division
// (n here is p-1 for a 32-bit prime, so this is fast).
func primeFactors(n uint64) []uint64 {
	var fs []uint64
	for _, p := range []uint64{2, 3, 5} {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	for d := uint64(7); d*d <= n; d += 2 {
		if n%d == 0 {
			fs = append(fs, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// findGenerator returns a generator of the multiplicative group mod p.
func findGenerator(p uint64) (uint64, error) {
	if p == 2 {
		return 1, nil
	}
	factors := primeFactors(p - 1)
	for g := uint64(2); g < p; g++ {
		ok := true
		for _, q := range factors {
			if powMod(g, (p-1)/q, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("zmap: no generator found for %d", p)
}
