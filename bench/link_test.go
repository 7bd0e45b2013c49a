package main

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// transfer pushes total bytes down the link, split evenly over conns
// connections, and returns how long it took until the far side had
// acknowledged every byte (one byte up per connection).
func transfer(t *testing.T, spec linkSpec, conns, total int) (time.Duration, linkCounters) {
	t.Helper()
	per := total / conns
	l, err := newLink(spec, func(c net.Conn) {
		defer c.Close()
		if _, err := io.CopyN(io.Discard, c, int64(per)); err != nil {
			return
		}
		_, _ = c.Write([]byte{1})
		_, _ = io.Copy(io.Discard, c) // until the near side hangs up
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Write(make([]byte, per)); err != nil {
				t.Error(err)
				return
			}
			if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), l.counters()
}

// TestLinkPacing checks the link model against its definition: 1 MB at 1 MB/s
// takes 1 s on one connection and on four, because sessions share the
// capacity; propagation delay adds latency and no more; counters are exact.
func TestLinkPacing(t *testing.T) {
	const mb = 1_000_000
	cases := []struct {
		name  string
		conns int
		delay time.Duration
	}{
		{"one connection", 1, 0},
		{"four connections", 4, 0},
		{"with delay", 1, 50 * time.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := linkSpec{DownBytesPerSec: mb, UpBytesPerSec: mb, Delay: tc.delay}
			// Down and back up, the delay is paid twice.
			want := time.Second + 2*tc.delay
			// A transfer can never beat the link, but on a loaded machine its
			// goroutines can be scheduled late; only a slow attempt is retried.
			var took time.Duration
			for attempt := 0; attempt < 3; attempt++ {
				var c linkCounters
				took, c = transfer(t, spec, tc.conns, mb)
				if c.downBytes != mb || c.upBytes != int64(tc.conns) {
					t.Fatalf("counted %d B down and %d B up, want %d and %d", c.downBytes, c.upBytes, mb, tc.conns)
				}
				if c.downBusy != time.Second || c.sessions != int64(tc.conns) {
					t.Fatalf("counted %v busy over %d sessions, want 1s over %d", c.downBusy, c.sessions, tc.conns)
				}
				if took < want*95/100 {
					t.Fatalf("took %v, faster than the link allows (%v)", took, want)
				}
				if took <= want*105/100 {
					return
				}
			}
			t.Fatalf("took %v, want %v ± 5%%", took, want)
		})
	}
}
