package netsim

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestLinkConfigHelpers(t *testing.T) {
	m := Modem28_8()
	if m.DownBandwidth != 3600 || m.UpBandwidth != 3600 {
		t.Errorf("Modem28_8 = %+v", m)
	}
	a := AsymmetricCable(100)
	if a.DownBandwidth != 100*a.UpBandwidth {
		t.Errorf("cable = %+v, want a 100:1 link", a)
	}
	if u := (LinkConfig{}); u.scale() != 1 {
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
	p := NewPair(LinkConfig{})
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

	// The uplink delivers exactly the reply's bytes: nothing more arrives
	// before the client side closes.
	reply := []byte("reply from the client")
	go func() {
		_, _ = p.ClientSide.Write(reply)
		p.ClientSide.Close()
	}()
	got, err := io.ReadAll(p.ServerSide)
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, reply) {
		t.Errorf("server got %q, want %q", got, reply)
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

func TestPairCloseUnblocksReaders(t *testing.T) {
	p := NewPair(LinkConfig{})
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
