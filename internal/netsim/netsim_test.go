package netsim

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func TestLinkConfigHelpers(t *testing.T) {
	m := Modem28_8()
	if m.DownBandwidth != 3600 || m.UpBandwidth != 3600 {
		t.Errorf("Modem28_8 = %+v", m)
	}
	if m.Asymmetry() != 1 {
		t.Errorf("modem asymmetry = %g", m.Asymmetry())
	}
	a := AsymmetricCable(100)
	if a.Asymmetry() != 100 {
		t.Errorf("cable asymmetry = %g", a.Asymmetry())
	}
	u := Unlimited()
	if u.Asymmetry() != 1 {
		t.Errorf("unlimited asymmetry = %g", u.Asymmetry())
	}
	if u.scale() != 1 {
		t.Errorf("default scale = %g", u.scale())
	}
	s := LinkConfig{TimeScale: 50}
	if s.scale() != 50 {
		t.Errorf("scale = %g", s.scale())
	}
}

func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{DownBandwidth: -1},
		{UpBandwidth: -1},
		{Latency: -time.Second},
		{TimeScale: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if err := Modem28_8().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPairTransfersAndCounts(t *testing.T) {
	p := NewPair(Unlimited())
	defer p.Close()

	msg := []byte("hello from the server")
	downDone := make(chan struct{})
	go func() {
		_, _ = p.ServerSide.Write(msg)
		close(downDone)
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(p.ClientSide, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("client got %q", buf)
	}
	<-downDone

	reply := []byte("reply from the client")
	upDone := make(chan struct{})
	go func() {
		_, _ = p.ClientSide.Write(reply)
		close(upDone)
	}()
	buf2 := make([]byte, len(reply))
	if _, err := io.ReadFull(p.ServerSide, buf2); err != nil {
		t.Fatalf("server read: %v", err)
	}
	<-upDone
	stats := p.Stats()
	if stats.BytesDown != int64(len(msg)) {
		t.Errorf("BytesDown = %d, want %d", stats.BytesDown, len(msg))
	}
	if stats.BytesUp != int64(len(reply)) {
		t.Errorf("BytesUp = %d, want %d", stats.BytesUp, len(reply))
	}
	if p.Config().DownBandwidth != 0 {
		t.Error("Config should round-trip")
	}
}

func TestPairShapingSlowsWrites(t *testing.T) {
	// 1 KB at 100 KB/s should take ~10ms; with TimeScale=1 it is measurable,
	// and with TimeScale=100 it should be ~100x faster. We only assert the
	// ordering to keep the test robust on loaded machines.
	payload := make([]byte, 1024)

	elapsed := func(cfg LinkConfig) time.Duration {
		p := NewPair(cfg)
		defer p.Close()
		done := make(chan struct{})
		go func() {
			buf := make([]byte, len(payload))
			_, _ = io.ReadFull(p.ClientSide, buf)
			close(done)
		}()
		start := time.Now()
		_, _ = p.ServerSide.Write(payload)
		<-done
		return time.Since(start)
	}

	slow := elapsed(LinkConfig{DownBandwidth: 100 * 1024, UpBandwidth: 100 * 1024})
	fast := elapsed(LinkConfig{DownBandwidth: 100 * 1024, UpBandwidth: 100 * 1024, TimeScale: 100})
	if slow < 5*time.Millisecond {
		t.Errorf("shaped write finished too quickly: %v", slow)
	}
	if fast >= slow {
		t.Errorf("TimeScale should speed up the link: fast=%v slow=%v", fast, slow)
	}
}

// TestShapeLinkCountsWrites: a ShapeLink conn counts what it writes, and only
// that — reads through it are unshaped and uncounted.
func TestShapeLinkCountsWrites(t *testing.T) {
	a, b := net.Pipe()
	var ctr atomic.Int64
	shaped := ShapeLink(a, Unlimited(), &ctr)

	readDone := make(chan struct{})
	go func() {
		buf := make([]byte, 5)
		_, _ = io.ReadFull(b, buf)
		close(readDone)
	}()
	if _, err := shaped.Write([]byte("12345")); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-readDone
	if ctr.Load() != 5 {
		t.Errorf("shaped counter = %d", ctr.Load())
	}
	go func() { _, _ = b.Write([]byte("abc")) }()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(shaped, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if ctr.Load() != 5 {
		t.Errorf("a read moved the write counter to %d", ctr.Load())
	}
	_ = shaped.Close()
	_ = b.Close()
}

func TestPairCloseUnblocksReaders(t *testing.T) {
	p := NewPair(Unlimited())
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := p.ClientSide.Read(buf)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	_ = p.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("read after close should fail")
		}
	case <-time.After(time.Second):
		t.Error("close did not unblock the reader")
	}
}
