package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// linkSpec describes one simulated client link: the two directions'
// capacities and the one-way propagation delay.
type linkSpec struct {
	DownBytesPerSec float64 // server → client
	UpBytesPerSec   float64 // client → server
	Delay           time.Duration
}

// pacerSlack is how far ahead of the wall clock a sender may reserve link
// time. Without it every chunk would have to be reserved exactly when the
// previous one ends, and each late wake-up from a sleep would leave the link
// idle; with it, reservations stay back to back and a late wake-up costs
// nothing. It bounds how much a connection can have queued on the link.
const pacerSlack = time.Millisecond

// linkChunk is the largest unit reserved on a pacer at once; smaller chunks
// interleave concurrent sessions more finely, larger ones cost fewer wake-ups.
const linkChunk = 8 << 10

// busyInterval is one reservation on a pacer's timeline.
type busyInterval struct{ start, end time.Time }

// pacer is one direction of a link: a single timeline every connection of
// the link reserves its transfers on, so N sessions share the capacity
// instead of each getting its own.
type pacer struct {
	bytesPerSec float64

	mu      sync.Mutex
	free    time.Time // when the timeline is next unreserved
	bytes   int64
	busy    time.Duration
	record  bool
	history []busyInterval
}

// reserve books n bytes on the timeline and returns when their last bit
// leaves the sender.
func (p *pacer) reserve(n int) time.Time {
	d := time.Duration(float64(n) / p.bytesPerSec * float64(time.Second))
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	if p.free.After(start) {
		start = p.free
	}
	p.free = start.Add(d)
	p.bytes += int64(n)
	p.busy += d
	if p.record {
		p.history = append(p.history, busyInterval{start, p.free})
	}
	return p.free
}

func (p *pacer) counters() (bytes int64, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes, p.busy
}

// setRecording turns the busy-interval history on or off; turning it on
// starts from an empty history.
func (p *pacer) setRecording(on bool) {
	p.mu.Lock()
	p.record = on
	p.history = nil
	p.mu.Unlock()
}

// takeHistory returns and clears the recorded busy intervals.
func (p *pacer) takeHistory() []busyInterval {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.history
	p.history = nil
	return h
}

// link is the benchmark's own model of the client link of one requester. The
// query server dials Addr for every UDF session; each accepted connection is
// bridged to the far side (serve, handed one end of a net.Pipe) through the
// link's two pacers. A write of n bytes occupies n ÷ bandwidth of the shared
// timeline of its direction; the propagation delay is added after
// serialisation and occupies no capacity.
type link struct {
	spec  linkSpec
	down  *pacer
	up    *pacer
	ln    net.Listener
	serve func(net.Conn)

	sessions atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newLink listens on loopback and serves every accepted connection's far side
// with serve, which owns (and closes) the connection it is given.
func newLink(spec linkSpec, serve func(net.Conn)) (*link, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &link{
		spec:  spec,
		down:  &pacer{bytesPerSec: spec.DownBytesPerSec},
		up:    &pacer{bytesPerSec: spec.UpBytesPerSec},
		ln:    ln,
		serve: serve,
		conns: make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr is the address the query server dials (QuerySpec.ClientAddr).
func (l *link) Addr() string { return l.ln.Addr().String() }

func (l *link) accept() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		near, far := net.Pipe()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = c.Close()
			_ = near.Close()
			_ = far.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.conns[near] = struct{}{}
		l.mu.Unlock()
		l.sessions.Add(1)
		l.wg.Add(3)
		go func() {
			defer l.wg.Done()
			l.serve(far)
		}()
		// Either direction ending tears the whole session down, which is what
		// a closed TCP connection does to both of its directions.
		done := func() {
			_ = c.Close()
			_ = near.Close()
			l.mu.Lock()
			delete(l.conns, c)
			delete(l.conns, near)
			l.mu.Unlock()
			l.wg.Done()
		}
		go func() { defer done(); l.pump(near, c, l.down) }()
		go func() { defer done(); l.pump(c, near, l.up) }()
	}
}

// delivery is one chunk on its way across the link.
type delivery struct {
	data []byte
	at   time.Time
}

// pump moves bytes from src to dst through the pacer. Reading and reserving
// run ahead of delivering by the propagation delay, so the delay adds latency
// without lowering throughput.
func (l *link) pump(dst io.Writer, src io.Reader, p *pacer) {
	// Capacity covers every chunk that can be in flight at once: delay ÷ the
	// time one chunk occupies the link, plus the slack's run-ahead. A full
	// queue only makes the reader wait.
	inFlight := make(chan delivery, 256)
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		failed := false
		for d := range inFlight {
			if failed {
				continue
			}
			if wait := time.Until(d.at); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := dst.Write(d.data); err != nil {
				failed = true
			}
		}
	}()
	for {
		buf := make([]byte, linkChunk)
		n, err := src.Read(buf)
		if n > 0 {
			sent := p.reserve(n)
			inFlight <- delivery{data: buf[:n], at: sent.Add(l.spec.Delay)}
			if ahead := time.Until(sent) - pacerSlack; ahead > 0 {
				time.Sleep(ahead)
			}
		}
		if err != nil {
			break
		}
	}
	close(inFlight)
	<-delivered
}

// Close stops accepting, tears every session down and waits for the link's
// goroutines.
func (l *link) Close() {
	l.mu.Lock()
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	_ = l.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	l.wg.Wait()
}

// linkCounters is a snapshot of a link's traffic.
type linkCounters struct {
	downBytes, upBytes int64
	downBusy, upBusy   time.Duration
	sessions           int64
}

func (l *link) counters() linkCounters {
	var c linkCounters
	c.downBytes, c.downBusy = l.down.counters()
	c.upBytes, c.upBusy = l.up.counters()
	c.sessions = l.sessions.Load()
	return c
}

func (c linkCounters) sub(o linkCounters) linkCounters {
	return linkCounters{
		downBytes: c.downBytes - o.downBytes,
		upBytes:   c.upBytes - o.upBytes,
		downBusy:  c.downBusy - o.downBusy,
		upBusy:    c.upBusy - o.upBusy,
		sessions:  c.sessions - o.sessions,
	}
}

func (c linkCounters) add(o linkCounters) linkCounters {
	return linkCounters{
		downBytes: c.downBytes + o.downBytes,
		upBytes:   c.upBytes + o.upBytes,
		downBusy:  c.downBusy + o.downBusy,
		upBusy:    c.upBusy + o.upBusy,
		sessions:  c.sessions + o.sessions,
	}
}
