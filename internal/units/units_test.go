package units

import (
	"testing"
	"testing/quick"
)

func TestTxTimeExactAtPaperRates(t *testing.T) {
	cases := []struct {
		b    ByteSize
		r    Rate
		want Time
	}{
		{1000, 40 * Gbps, 200 * Nanosecond},
		{1000, 100 * Gbps, 80 * Nanosecond},
		{1000, 200 * Gbps, 40 * Nanosecond},
		{64 * KB, 40 * Gbps, 12800 * Nanosecond},
		{1, 8, Second},
		{0, 40 * Gbps, 0},
	}
	for _, c := range cases {
		if got := TxTime(c.b, c.r); got != c.want {
			t.Errorf("TxTime(%v, %v) = %v, want %v", c.b, c.r, got, c.want)
		}
	}
}

func TestTxTimeZeroRate(t *testing.T) {
	if got := TxTime(1000, 0); got != Forever {
		t.Errorf("TxTime at zero rate = %v, want Forever", got)
	}
}

func TestTxTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s = 2.666... s, must round up.
	got := TxTime(1, 3)
	if got <= 2*Second+666*Millisecond || got > 2*Second+667*Millisecond {
		t.Errorf("TxTime(1B, 3bps) = %v, want ~2.6667s rounded up", got)
	}
}

func TestBytesIn(t *testing.T) {
	// 40 Gbps for 1 us = 5000 bytes.
	if got := BytesIn(Microsecond, 40*Gbps); got != 5000 {
		t.Errorf("BytesIn(1us, 40Gbps) = %v, want 5000", got)
	}
	if got := BytesIn(0, 40*Gbps); got != 0 {
		t.Errorf("BytesIn(0) = %v, want 0", got)
	}
	// A long window must not overflow: 10 s at 200 Gbps = 250 GB.
	if got := BytesIn(10*Second, 200*Gbps); got != 250*1000*MB {
		t.Errorf("BytesIn(10s, 200Gbps) = %v, want 250GB", got)
	}
}

func TestRateOf(t *testing.T) {
	// 5000 bytes in 1 us = 40 Gbps.
	got := RateOf(5000, Microsecond)
	if got != 40*Gbps {
		t.Errorf("RateOf(5000B, 1us) = %v, want 40Gbps", got)
	}
	if got := RateOf(100, 0); got != 0 {
		t.Errorf("RateOf with zero duration = %v, want 0", got)
	}
}

// Property: for positive sizes and rates, TxTime is long enough that the
// same rate delivers at least the size back (round-trip consistency).
func TestTxTimeBytesInRoundTrip(t *testing.T) {
	f := func(b uint16, rSel uint8) bool {
		size := ByteSize(b) + 1
		rates := []Rate{10 * Gbps, 40 * Gbps, 100 * Gbps, 200 * Gbps, 1 * Gbps}
		r := rates[int(rSel)%len(rates)]
		d := TxTime(size, r)
		return BytesIn(d, r) >= size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TxTime is monotone in size.
func TestTxTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := ByteSize(a), ByteSize(b)
		if x > y {
			x, y = y, x
		}
		return TxTime(x, 40*Gbps) <= TxTime(y, 40*Gbps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{(34400 * Nanosecond).String(), "34.4us"},
		{(1600 * Microsecond).String(), "1.6ms"},
		{(2 * Second).String(), "2s"},
		{(500 * Picosecond).String(), "500ps"},
		{(-200 * Nanosecond).String(), "-200ns"},
		{(1234567 * Second).String(), "1.23457e+06s"},
		{(-1000000 * Second).String(), "-1e+06s"},
		{(40 * Gbps).String(), "40Gbps"},
		{(5 * Mbps).String(), "5Mbps"},
		{(320 * KB).String(), "320KB"},
		{(64 * Byte).String(), "64B"},
		{(10 * MB).String(), "10MB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestConversions(t *testing.T) {
	if (250 * Microsecond).Seconds() != 0.00025 {
		t.Error("Seconds conversion wrong")
	}
	if (34400 * Nanosecond).Micros() != 34.4 {
		t.Error("Micros conversion wrong")
	}
	if (3 * Millisecond).Millis() != 3 {
		t.Error("Millis conversion wrong")
	}
	if FromSeconds(0.001) != Millisecond {
		t.Error("FromSeconds conversion wrong")
	}
	if (1 * KB).Bits() != 8000 {
		t.Error("Bits conversion wrong")
	}
}

func TestTxTimeLargeMessages(t *testing.T) {
	// Overflow regression: multi-MB messages must serialize positively
	// and proportionally.
	got := TxTime(10*MB, 40*Gbps)
	want := 2 * Millisecond // 80e6 bits / 40e9 bps = 2 ms
	if got != want {
		t.Errorf("TxTime(10MB, 40Gbps) = %v, want %v", got, want)
	}
	if TxTime(1700*KB, 40*Gbps) <= 0 {
		t.Error("TxTime went non-positive for a 1.7MB message")
	}
	// 1 GB at 10 Gbps = 0.8 s.
	if got := TxTime(1000*MB, 10*Gbps); got != 800*Millisecond {
		t.Errorf("TxTime(1GB, 10Gbps) = %v, want 800ms", got)
	}
}

func TestBytesInSubSecondHighRate(t *testing.T) {
	// Overflow regression: 20 ms at 100 Gbps = 250 MB.
	if got := BytesIn(20*Millisecond, 100*Gbps); got != 250*MB {
		t.Errorf("BytesIn(20ms, 100Gbps) = %v, want 250MB", got)
	}
}
