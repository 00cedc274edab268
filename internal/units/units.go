// Package units defines the physical quantities used throughout the
// simulator: simulated time, link rates and byte counts.
//
// Time is kept in integer picoseconds so that the serialization time of an
// MTU-sized frame is exact at every link speed the paper uses (40, 100 and
// 200 Gbps): 1000 bytes at 40 Gbps is exactly 200 ns. Integer time makes
// every run bit-reproducible.
package units

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"strconv"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel time earlier than any event; it is used for
// "this has not happened yet" timestamps such as the end of the last
// OFF period on a port that has never been paused.
const Never Time = -1 << 62

// Forever is a sentinel time later than any event.
const Forever Time = 1<<62 - 1

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit, e.g. "34.4us" or "1.6ms".
func (t Time) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends String's text to b: the value in the largest unit it
// reaches to six significant digits (fmt's %.6g), or whole picoseconds.
func (t Time) AppendTo(b []byte) []byte {
	if t < 0 {
		b, t = append(b, '-'), -t
	}
	switch {
	case t >= Second:
		return appendIn(b, t, Second, "s")
	case t >= Millisecond:
		return appendIn(b, t, Millisecond, "ms")
	case t >= Microsecond:
		return appendIn(b, t, Microsecond, "us")
	case t >= Nanosecond:
		return appendIn(b, t, Nanosecond, "ns")
	}
	return append(strconv.AppendInt(b, int64(t), 10), "ps"...)
}

func appendIn(b []byte, t, unit Time, suffix string) []byte {
	return append(strconv.AppendFloat(b, float64(t)/float64(unit), 'g', 6, 64), suffix...)
}

// FromSeconds converts a floating-point number of seconds to Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMicros converts a number of microseconds, as specs and batteries
// write them, to Time rounded to the nearest picosecond.
func FromMicros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// Rate is a link or flow rate in bits per second.
type Rate int64

// Common rates.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// String renders the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.6gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.6gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.6gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// ByteSize is a quantity of bytes (packet sizes, queue depths, buffers).
type ByteSize int64

// Common sizes.
const (
	Byte ByteSize = 1
	KB   ByteSize = 1000 * Byte
	KiB  ByteSize = 1024 * Byte
	MB   ByteSize = 1000 * KB
	MiB  ByteSize = 1024 * KiB
)

// Bits reports the size in bits.
func (b ByteSize) Bits() int64 { return int64(b) * 8 }

// String renders the size with an adaptive unit.
func (b ByteSize) String() string {
	switch {
	case b >= MB:
		return fmt.Sprintf("%.6gMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.6gKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// TxTime reports how long transmitting b bytes takes at rate r.
// It rounds up to a whole picosecond so a transmission never finishes
// earlier than physics allows.
func TxTime(b ByteSize, r Rate) Time {
	if r <= 0 {
		return Forever
	}
	if b <= 0 {
		return 0
	}
	// ceil(bits * 1e12 / r). The product exceeds 63 bits already for a
	// ~1.2 MB message, so compute it in 128 bits.
	bits64 := uint64(b.Bits())
	hi, lo := mathbits.Mul64(bits64, uint64(Second))
	q, rem := mathbits.Div64(hi, lo, uint64(r))
	if rem > 0 {
		q++
	}
	return Time(q)
}

// BytesIn reports how many whole bytes rate r delivers in duration d.
func BytesIn(d Time, r Rate) ByteSize {
	if d <= 0 || r <= 0 {
		return 0
	}
	// bytes = d * r / (8 * 1e12). The sub-second remainder times the rate
	// can exceed 63 bits (20 ms at 100 Gbps already does), so use a
	// 128-bit intermediate product.
	q := int64(d) / int64(Second)
	rem := uint64(int64(d) % int64(Second))
	hi, lo := mathbits.Mul64(rem, uint64(r))
	fracBits, _ := mathbits.Div64(hi, lo, uint64(Second))
	total := q*int64(r) + int64(fracBits)
	return ByteSize(total / 8)
}

// RateOf reports the average rate achieved by delivering b bytes in d.
func RateOf(b ByteSize, d Time) Rate {
	if d <= 0 {
		return 0
	}
	secs := float64(d) / float64(Second)
	return Rate(float64(b.Bits()) / secs)
}
