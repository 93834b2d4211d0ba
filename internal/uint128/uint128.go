// Package uint128 implements 128-bit unsigned integer arithmetic.
//
// IPv6 addresses are 128-bit values; the measurement algorithms in this
// repository (allocation-size and rotation-pool inference, cyclic-group
// scan permutations, prefix iteration) all need full-width arithmetic:
// addition with carry, subtraction with borrow, shifts, comparisons,
// multiplication modulo a prime near 2^128, and base-2 logarithms.
// The type is a value type (two machine words) and all operations are
// allocation-free.
package uint128

import (
	"fmt"
	"math/bits"
)

// Uint128 is an unsigned 128-bit integer in native (Hi, Lo) form.
// The zero value is the number 0.
type Uint128 struct {
	Hi uint64 // most-significant 64 bits
	Lo uint64 // least-significant 64 bits
}

// Common constants.
var (
	Zero = Uint128{}
	One  = Uint128{Lo: 1}
	Max  = Uint128{Hi: ^uint64(0), Lo: ^uint64(0)}
)

// From64 returns v as a Uint128.
func From64(v uint64) Uint128 { return Uint128{Lo: v} }

// New returns a Uint128 with the given high and low words.
func New(hi, lo uint64) Uint128 { return Uint128{Hi: hi, Lo: lo} }

// FromBytes interprets b as a big-endian 128-bit integer.
// It panics if len(b) != 16.
func FromBytes(b []byte) Uint128 {
	if len(b) != 16 {
		panic(fmt.Sprintf("uint128: FromBytes on %d bytes", len(b)))
	}
	var u Uint128
	for i := 0; i < 8; i++ {
		u.Hi = u.Hi<<8 | uint64(b[i])
		u.Lo = u.Lo<<8 | uint64(b[i+8])
	}
	return u
}

// Bytes returns the big-endian 16-byte representation of u.
func (u Uint128) Bytes() [16]byte {
	var b [16]byte
	u.PutBytes(b[:])
	return b
}

// PutBytes writes the big-endian representation of u into b.
// It panics if len(b) < 16.
func (u Uint128) PutBytes(b []byte) {
	_ = b[15]
	hi, lo := u.Hi, u.Lo
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		b[i+8] = byte(lo)
		hi >>= 8
		lo >>= 8
	}
}

// IsZero reports whether u == 0.
func (u Uint128) IsZero() bool { return u.Hi == 0 && u.Lo == 0 }

// Cmp compares u and v, returning -1, 0 or +1.
func (u Uint128) Cmp(v Uint128) int {
	switch {
	case u.Hi < v.Hi:
		return -1
	case u.Hi > v.Hi:
		return 1
	case u.Lo < v.Lo:
		return -1
	case u.Lo > v.Lo:
		return 1
	}
	return 0
}

// Less reports whether u < v.
func (u Uint128) Less(v Uint128) bool { return u.Cmp(v) < 0 }

// Add returns u+v, wrapping on overflow.
func (u Uint128) Add(v Uint128) Uint128 {
	lo, carry := bits.Add64(u.Lo, v.Lo, 0)
	hi, _ := bits.Add64(u.Hi, v.Hi, carry)
	return Uint128{Hi: hi, Lo: lo}
}

// Add64 returns u+v, wrapping on overflow.
func (u Uint128) Add64(v uint64) Uint128 {
	lo, carry := bits.Add64(u.Lo, v, 0)
	return Uint128{Hi: u.Hi + carry, Lo: lo}
}

// Sub returns u-v, wrapping on underflow.
func (u Uint128) Sub(v Uint128) Uint128 {
	lo, borrow := bits.Sub64(u.Lo, v.Lo, 0)
	hi, _ := bits.Sub64(u.Hi, v.Hi, borrow)
	return Uint128{Hi: hi, Lo: lo}
}

// Mul returns u*v, wrapping modulo 2^128.
func (u Uint128) Mul(v Uint128) Uint128 {
	hi, lo := bits.Mul64(u.Lo, v.Lo)
	hi += u.Hi*v.Lo + u.Lo*v.Hi
	return Uint128{Hi: hi, Lo: lo}
}

// Lsh returns u<<n. Shifts of 128 or more return zero.
func (u Uint128) Lsh(n uint) Uint128 {
	switch {
	case n >= 128:
		return Zero
	case n >= 64:
		return Uint128{Hi: u.Lo << (n - 64)}
	case n == 0:
		return u
	}
	return Uint128{Hi: u.Hi<<n | u.Lo>>(64-n), Lo: u.Lo << n}
}

// Rsh returns u>>n. Shifts of 128 or more return zero.
func (u Uint128) Rsh(n uint) Uint128 {
	switch {
	case n >= 128:
		return Zero
	case n >= 64:
		return Uint128{Lo: u.Hi >> (n - 64)}
	case n == 0:
		return u
	}
	return Uint128{Hi: u.Hi >> n, Lo: u.Lo>>n | u.Hi<<(64-n)}
}

// And returns u&v.
func (u Uint128) And(v Uint128) Uint128 { return Uint128{Hi: u.Hi & v.Hi, Lo: u.Lo & v.Lo} }

// Or returns u|v.
func (u Uint128) Or(v Uint128) Uint128 { return Uint128{Hi: u.Hi | v.Hi, Lo: u.Lo | v.Lo} }

// Xor returns u^v.
func (u Uint128) Xor(v Uint128) Uint128 { return Uint128{Hi: u.Hi ^ v.Hi, Lo: u.Lo ^ v.Lo} }

// Not returns ^u.
func (u Uint128) Not() Uint128 { return Uint128{Hi: ^u.Hi, Lo: ^u.Lo} }

// BitLen returns the number of bits required to represent u;
// BitLen(0) == 0.
func (u Uint128) BitLen() int {
	if u.Hi != 0 {
		return 64 + bits.Len64(u.Hi)
	}
	return bits.Len64(u.Lo)
}

// TrailingZeros returns the number of trailing zero bits in u;
// TrailingZeros(0) == 128.
func (u Uint128) TrailingZeros() int {
	if u.Lo != 0 {
		return bits.TrailingZeros64(u.Lo)
	}
	if u.Hi != 0 {
		return 64 + bits.TrailingZeros64(u.Hi)
	}
	return 128
}

// Log2Ceil returns ceil(log2(u)), the number of bits needed so that
// 2^Log2Ceil(u) >= u. Log2Ceil(0) and Log2Ceil(1) are 0. This matches the
// log2(max-min) step of the paper's Algorithms 1 and 2, which maps an
// observed address span to a prefix-length difference.
func (u Uint128) Log2Ceil() int {
	n := u.BitLen()
	if n == 0 {
		return 0
	}
	// Exact power of two: log2 is BitLen-1.
	if u.TrailingZeros() == n-1 {
		return n - 1
	}
	return n
}

// Div64 returns (u / v, u % v) for a 64-bit divisor. It panics if v == 0.
func (u Uint128) Div64(v uint64) (q Uint128, r uint64) {
	if v == 0 {
		panic("uint128: division by zero")
	}
	q.Hi, r = bits.Div64(0, u.Hi, v)
	q.Lo, r = bits.Div64(r, u.Lo, v)
	return q, r
}

// String formats u in decimal.
func (u Uint128) String() string {
	if u.Hi == 0 {
		return fmt.Sprintf("%d", u.Lo)
	}
	// Repeated division by 1e19 (largest power of ten in a uint64).
	const chunk = 1e19
	var parts []uint64
	for !u.IsZero() {
		var r uint64
		u, r = u.Div64(chunk)
		parts = append(parts, r)
	}
	s := fmt.Sprintf("%d", parts[len(parts)-1])
	for i := len(parts) - 2; i >= 0; i-- {
		s += fmt.Sprintf("%019d", parts[i])
	}
	return s
}

// Hex formats u as a 32-digit zero-padded hexadecimal string.
func (u Uint128) Hex() string { return fmt.Sprintf("%016x%016x", u.Hi, u.Lo) }
