package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"csq/internal/exec"
	"csq/internal/plan"
	"csq/internal/types"
	"csq/internal/wire"
)

// plainCaps is what a requester built before any result-stream encoding
// asks for; rowStreamCaps what one of the retired row-major stream encoding
// asks for, and what such a server echoes at most.
const (
	plainCaps     = wire.CapCancel | wire.CapTextQuery | wire.CapReject | wire.CapPrepared
	rowStreamCaps = plainCaps | 1<<5
)

// ---- a scripted peer for the requester -------------------------------------

// scriptedServer plays the server end of one control connection: it acks
// every MsgQuery with the capabilities it was given (intersected with the
// request's) and hands the query ID to script, which writes whatever frames
// the test wants the requester to see.
func scriptedServer(t *testing.T, caps uint32, script func(conn *wire.Conn, id uint64)) *Requester {
	t.Helper()
	cn, sn := net.Pipe()
	conn := wire.NewConn(sn)
	go func() {
		defer conn.Close()
		for {
			msg, err := conn.Receive()
			if err != nil {
				return
			}
			if msg.Type != wire.MsgQuery {
				continue
			}
			spec, err := wire.DecodeQuerySpec(msg.Payload)
			if err != nil {
				t.Errorf("scripted server: %v", err)
				return
			}
			ack := &wire.QueryAck{QueryID: spec.QueryID, OK: true, Caps: spec.Caps & caps}
			if err := conn.Send(wire.MsgQueryAck, wire.EncodeQueryAck(ack)); err != nil {
				return
			}
			script(conn, spec.QueryID)
		}
	}()
	r := NewRequester(cn)
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// streamOf encodes rows as a result stream in 64-row frames.
func streamOf(t *testing.T, stream bool, rows []types.Tuple) []wire.ResultFrame {
	t.Helper()
	enc := wire.NewResultEncoder(stream)
	var frames []wire.ResultFrame
	for off := 0; off < len(rows); off += exec.DefaultBatchSize {
		f, err := enc.AppendFrame(nil, rows[off:min(off+exec.DefaultBatchSize, len(rows))])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames
}

// labelRows is a small answer with duplicates for the dictionaries to hold.
func labelRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewString(strings.Repeat("label", 4) + string(rune('a'+i%5)))}
	}
	return rows
}

func sendEnd(conn *wire.Conn, id uint64, rows int) {
	_ = conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: id, Rows: uint64(rows)}))
}

// TestRequesterDamagedFrameEndsQuery injects a corrupted frame into the
// middle of a result stream. The query it names must end with an error — not
// with a shortened answer, and not with rows decoded against dictionaries the
// lost frame would have extended — while the connection and its other queries
// carry on. The same holds for a damaged terminal frame.
func TestRequesterDamagedFrameEndsQuery(t *testing.T) {
	rows := labelRows(300)
	damage := map[uint64]func(frames []wire.ResultFrame) []wire.ResultFrame{
		// Query 1: the second frame's first cell references an entry far
		// outside the dictionary.
		1: func(frames []wire.ResultFrame) []wire.ResultFrame {
			body := bytes.Clone(frames[1].Body)
			body[5] = 0x7f // the first cell's code, after the header and the vector head
			frames[1] = wire.ResultFrame{Type: frames[1].Type, Body: body}
			return frames
		},
		// Query 2: untouched.
		2: func(frames []wire.ResultFrame) []wire.ResultFrame { return frames },
	}
	r := scriptedServer(t, serverCaps, func(conn *wire.Conn, id uint64) {
		switch id {
		case 1, 2:
			_ = conn.SendResultFrames(id, damage[id](streamOf(t, true, rows)))
			sendEnd(conn, id, len(rows))
		case 3:
			// A terminal frame cut short of its row count.
			_ = conn.SendResultFrames(id, streamOf(t, true, rows))
			_ = conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: id})[:12])
		}
	})

	q1, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q1.Collect()
	if err == nil || !strings.Contains(err.Error(), "damaged RESULT_VECTORS frame") {
		t.Fatalf("collect over a corrupted stream returned %d rows and error %v, want a damaged-frame error", len(got), err)
	}
	if len(got) != exec.DefaultBatchSize {
		t.Fatalf("collected %d rows before the damaged frame, want the %d of the one good frame", len(got), exec.DefaultBatchSize)
	}
	if !reflect.DeepEqual(q1.ch.dec, wire.ResultDecoder{}) {
		t.Fatal("the failed stream's dictionaries outlived it")
	}

	q2, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatalf("submit after a damaged stream: %v", err)
	}
	got, err = q2.Collect()
	if err != nil {
		t.Fatalf("the connection's next query failed: %v", err)
	}
	if !bytes.Equal(encodeRows(t, got), encodeRows(t, rows)) {
		t.Fatal("the connection's next query decoded to other rows")
	}

	q3, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q3.Collect(); err == nil || !strings.Contains(err.Error(), "damaged END frame") {
		t.Fatalf("collect over a truncated End returned %v, want a damaged-frame error", err)
	}
}

// TestRequesterUnreadableFrameFailsConnection sends a frame too short to name
// a query: every pending query ends with an error and the requester refuses
// further work.
func TestRequesterUnreadableFrameFailsConnection(t *testing.T) {
	r := scriptedServer(t, serverCaps, func(conn *wire.Conn, id uint64) {
		if id == 2 {
			_ = conn.Send(wire.MsgResultVectors, []byte{1, 2, 3})
		}
	})
	q1, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []*RemoteQuery{q1, q2} {
		if _, err := q.Collect(); err == nil || !strings.Contains(err.Error(), "names no query") {
			t.Fatalf("query %d ended with %v, want the connection's failure", i+1, err)
		}
	}
	if _, err := r.Submit(wire.QuerySpec{Table: "t"}); err == nil {
		t.Fatal("submit on a failed connection succeeded")
	}
}

// TestCollectDetectsMissingFrame is a server that drops one frame of its
// answer but still reports the full row count: the collector must notice. The
// server is also one of the row-major stream encoding, which never echoes the
// column-vector capability, so the same run pins that a new requester takes
// plain frames from an old server.
func TestCollectDetectsMissingFrame(t *testing.T) {
	rows := labelRows(200)
	r := scriptedServer(t, rowStreamCaps, func(conn *wire.Conn, id uint64) {
		frames := streamOf(t, false, rows)
		if id == 2 {
			frames = append(frames[:1:1], frames[2:]...)
		}
		_ = conn.SendResultFrames(id, frames)
		sendEnd(conn, id, len(rows))
	})
	q, err := r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if q.caps != plainCaps {
		t.Fatal("requester believes a capability the server did not echo")
	}
	got, err := q.Collect()
	if err != nil {
		t.Fatalf("plain stream from an old server: %v", err)
	}
	if !bytes.Equal(encodeRows(t, got), encodeRows(t, rows)) {
		t.Fatal("plain stream from an old server decoded to other rows")
	}

	q, err = r.Submit(wire.QuerySpec{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	got, err = q.Collect()
	if err == nil || !strings.Contains(err.Error(), "ended after 136 rows, the server sent 200") {
		t.Fatalf("collect of a stream missing a frame returned %d rows and error %v", len(got), err)
	}
}

// ---- an old requester against the real server ------------------------------

// oldPeer is a requester from before the column-vector encoding, on a raw
// connection: it asks for caps, which never include the column-vector
// capability, and fails the test if the server sends anything but plain
// frames or echoes a bit outside plainCaps.
type oldPeer struct {
	t    *testing.T
	conn *wire.Conn
	caps uint32
}

func dialOldPeer(t *testing.T, addr string, caps uint32) *oldPeer {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &oldPeer{t: t, conn: wire.NewConn(nc), caps: caps}
}

func (p *oldPeer) send(typ wire.MsgType, payload []byte) {
	p.t.Helper()
	if err := p.conn.Send(typ, payload); err != nil {
		p.t.Fatal(err)
	}
}

func (p *oldPeer) spec(spec wire.QuerySpec) []byte {
	p.t.Helper()
	spec.Caps = p.caps
	payload, err := wire.EncodeQuerySpec(&spec)
	if err != nil {
		p.t.Fatal(err)
	}
	return payload
}

// answer reads one query's stream to its End and returns the payloads of its
// result frames.
func (p *oldPeer) answer(id uint64) [][]byte {
	p.t.Helper()
	var payloads [][]byte
	for {
		msg, err := p.conn.Receive()
		if err != nil {
			p.t.Fatal(err)
		}
		switch msg.Type {
		case wire.MsgQueryAck, wire.MsgPrepareAck:
			ack, err := wire.DecodeQueryAck(msg.Payload)
			if err != nil || !ack.OK {
				p.t.Fatalf("ack: %+v, %v", ack, err)
			}
			if want := p.caps & plainCaps; ack.Caps != want {
				p.t.Fatalf("ack caps = %#x for a request of %#x, want %#x", ack.Caps, p.caps, want)
			}
		case wire.MsgResultBatch:
			payloads = append(payloads, msg.Payload)
		case wire.MsgEnd:
			if got, _ := wire.StreamID(msg.Payload); got != id {
				p.t.Fatalf("End of query %d while reading query %d", got, id)
			}
			return payloads
		default:
			p.t.Fatalf("old peer was sent a %s frame", msg.Type)
		}
	}
}

// parentFrames is what the parent commit's server streamed for rows under id:
// AppendTupleBatch over 64-row batches, sequence number 0.
func parentFrames(t *testing.T, id uint64, rows []types.Tuple) [][]byte {
	t.Helper()
	var payloads [][]byte
	for off := 0; off < len(rows); off += exec.DefaultBatchSize {
		p, err := wire.AppendTupleBatch(nil, &wire.TupleBatch{SessionID: id, Tuples: rows[off:min(off+exec.DefaultBatchSize, len(rows))]})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

func requireFramesEqual(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs from the parent commit's bytes", what, i)
		}
	}
}

// TestServerOldRequesterGetsParentBytes pins what a peer without the
// column-vector capability receives, whether it asks for nothing, for the
// retired row-major stream bit 5 alone, or for everything a requester of the
// row-major encoding did: frame for frame the plain bytes an old server sent
// — for ad-hoc queries, a prepared execution, and a result-cache hit on an
// answer a new requester's query stored as vector frames. The reverse
// transcoding — a new requester hitting an answer an old peer's query stored
// plain — gets the same stream bytes as a fresh answer.
func TestServerOldRequesterGetsParentBytes(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	srv, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}, ResultCacheBytes: 16 << 20})
	dims := wire.QuerySpec{Table: "dims"}
	dimsTree, err := srv.buildTree(&dims)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, fx, dimsTree)

	// A new requester fills the cache with vector frames.
	nr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	collect := func(q *RemoteQuery, err error) []types.Tuple {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := q.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if got := collect(nr.Submit(dims)); !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatal("new requester's answer differs from the reference")
	}
	if e := onlyCachedResult(t, srv.svc); !e.stream {
		t.Fatal("a new requester's answer was cached in the plain encoding")
	}

	// Old peers: one that asks for nothing, one that asks only for the
	// retired row-major stream bit, and one that asks for all the row-major
	// encoding's requester did. Each is sent the plain bytes, both for a
	// cache hit on the vector-encoded entry and for a fresh answer.
	peers := []*oldPeer{dialOldPeer(t, addr, 0), dialOldPeer(t, addr, 1<<5), dialOldPeer(t, addr, rowStreamCaps)}
	for i, old := range peers {
		id := uint64(11 + i)
		dims.QueryID = id
		old.send(wire.MsgQuery, old.spec(dims))
		requireFramesEqual(t, fmt.Sprintf("cache hit transcoded for a peer asking for %#x", old.caps), old.answer(id), parentFrames(t, id, want))
	}
	if hits := srv.svc.Stats().Caches.ResultHits; hits != int64(len(peers)) {
		t.Fatalf("old peers' queries hit the cache %d times, want %d", hits, len(peers))
	}
	// Uncached ad-hoc queries, one per peer; the last is the labels answer.
	var wantLabels []types.Tuple
	for i, project := range [][]int{{0}, {1, 0}, {1}} {
		spec := wire.QuerySpec{QueryID: uint64(21 + i), Table: "dims", Project: project}
		tree, err := srv.buildTree(&spec)
		if err != nil {
			t.Fatal(err)
		}
		wantLabels = referenceRun(t, fx, tree)
		peers[i].send(wire.MsgQuery, peers[i].spec(spec))
		requireFramesEqual(t, fmt.Sprintf("fresh answer for a peer asking for %#x", peers[i].caps), peers[i].answer(spec.QueryID), parentFrames(t, spec.QueryID, wantLabels))
	}
	if misses := srv.svc.Stats().Caches.ResultMisses; misses != 4 {
		t.Fatalf("%d result cache misses, want the new requester's and the three fresh answers", misses)
	}

	// A prepared execution, plain: a hit on the old peer's own plain entry.
	old, labels := peers[2], wire.QuerySpec{Table: "dims", Project: []int{1}}
	labels.QueryID = 13
	old.send(wire.MsgPrepare, old.spec(labels))
	old.send(wire.MsgExecPrepared, wire.EncodeExecPrepared(&wire.ExecPrepared{StatementID: 13, QueryID: 14}))
	requireFramesEqual(t, "prepared execution (a hit on the old peer's own plain entry)", old.answer(14), parentFrames(t, 14, wantLabels))

	// The labels answer was stored plain by the old peer; a new requester's
	// hit is transcoded to exactly what it would have been sent fresh.
	before := nr.conn.BytesReceived()
	if got := collect(nr.Submit(wire.QuerySpec{Table: "dims", Project: []int{1}})); !bytes.Equal(encodeRows(t, got), encodeRows(t, wantLabels)) {
		t.Fatal("transcoded answer differs from the reference")
	}
	received := nr.conn.BytesReceived() - before
	fresh := 0
	for _, f := range streamOf(t, true, wantLabels) {
		fresh += 5 + 8 + len(f.Body)
	}
	ackAndEnd := int64(5+8+1+1+4) + int64(5+16)
	if received != int64(fresh)+ackAndEnd {
		t.Fatalf("new requester received %d B for a plain-cached answer, want the %d B of its stream encoding", received-ackAndEnd, fresh)
	}
}

// onlyCachedResult returns the result cache's single entry.
func onlyCachedResult(t *testing.T, svc *Service) *cachedResult {
	t.Helper()
	entries := svc.resultCache.Values()
	if len(entries) != 1 {
		t.Fatalf("result cache holds %d entries, want 1", len(entries))
	}
	return entries[0]
}

// ---- cache accounting and state lifetime -----------------------------------

// TestResultCacheChargesExactFrameBytes checks that the cache's reported
// occupancy is the summed length of the frames it holds, whoever filled it —
// a wire requester or an in-process caller — and that a wire hit puts exactly
// those bytes on the connection.
func TestResultCacheChargesExactFrameBytes(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	srv, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}, ResultCacheBytes: 16 << 20})
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	run := func() int64 {
		t.Helper()
		before := r.conn.BytesReceived()
		q, err := r.Submit(wire.QuerySpec{Table: "events", Project: []int{0, 2}})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := q.Collect()
		if err != nil || len(rows) != eventRows {
			t.Fatalf("collected %d rows, error %v", len(rows), err)
		}
		return r.conn.BytesReceived() - before
	}
	miss := run()
	entry := onlyCachedResult(t, srv.svc)
	hit := run()
	if st := srv.svc.Stats().Caches; st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.ResultHits, st.ResultMisses)
	}
	if hit != miss {
		t.Fatalf("a hit put %d B on the wire, the miss that filled it %d B", hit, miss)
	}
	ackAndEnd := int64(5+8+1+1+4) + int64(5+16)
	if want := entry.bytes + int64(len(entry.frames))*(5+8) + ackAndEnd; hit != want {
		t.Fatalf("a hit put %d B on the wire, want the entry's %d B framed: %d B", hit, entry.bytes, want)
	}

	// An in-process caller fills a second entry; it collects tuples, the
	// cache keeps frames.
	res, err := srv.svc.Execute(context.Background(), Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	again, err := srv.svc.Execute(context.Background(), Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.ResultFromCache || !bytes.Equal(encodeRows(t, again.Rows), encodeRows(t, res.Rows)) {
		t.Fatal("in-process hit did not decode to the rows that were stored")
	}

	var sum int64
	cached := srv.svc.resultCache.Values()
	for _, e := range cached {
		var n int64
		for _, f := range e.frames {
			n += int64(len(f.Body))
		}
		if n != e.bytes {
			t.Errorf("entry charged %d B holds %d B of frames", e.bytes, n)
		}
		sum += n
	}
	entries := len(cached)
	if st := srv.svc.Stats().Caches; st.ResultBytes != sum || st.ResultEntries != entries || entries != 2 {
		t.Fatalf("ResultBytes = %d over %d entries, want the %d B of %d entries' frames", st.ResultBytes, st.ResultEntries, sum, entries)
	}
}

// requireNoStreamState asserts that no finished query of the service still
// holds an encoder or kept frames, and that the requester tracks no query.
func requireNoStreamState(t *testing.T, what string, svc *Service, r *Requester) {
	t.Helper()
	svc.mu.Lock()
	for id, q := range svc.queries {
		select {
		case <-q.done:
			if q.enc != nil || q.keep != nil {
				t.Errorf("%s: finished query %d still holds its result encoder", what, id)
			}
		default:
			t.Errorf("%s: query %d is still running", what, id)
		}
	}
	svc.mu.Unlock()
	r.mu.Lock()
	if n := len(r.pending); n != 0 {
		t.Errorf("%s: requester still tracks %d queries", what, n)
	}
	r.mu.Unlock()
}

// TestResultStreamStateFreedWithQuery ends result streams every way they can
// end — End, Error, Reject, cancel, and a requester that walks away — and
// checks that neither side keeps dictionaries for a query that is over.
func TestResultStreamStateFreedWithQuery(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	srv, addr := startServer(t, fx, Config{
		MaxConcurrent: 1, MaxQueued: 1, Planner: plan.Config{Link: fixedLink()}, ResultCacheBytes: 1 << 20,
	})
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	slow := wire.QuerySpec{
		Table: "events", UDFs: []wire.UDFSpec{{Name: "slowscore", ArgOrdinals: []int{1}}}, ClientAddr: fx.clientAddr,
	}
	submit := func(spec wire.QuerySpec) *RemoteQuery {
		t.Helper()
		q, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// awaitServer waits until the server has finished every query it was
	// given: a requester that stopped listening learns nothing from Collect.
	awaitServer := func() {
		t.Helper()
		srv.svc.mu.Lock()
		qs := make([]*Query, 0, len(srv.svc.queries))
		for _, q := range srv.svc.queries {
			qs = append(qs, q)
		}
		srv.svc.mu.Unlock()
		for _, q := range qs {
			select {
			case <-q.done:
			case <-time.After(10 * time.Second):
				t.Fatal("server query never finished")
			}
		}
	}

	// End: a cacheable answer larger than the cache takes, so the kept frames
	// are abandoned mid-stream and the rest must go too.
	q := submit(wire.QuerySpec{Table: "events"})
	rows, err := q.Collect()
	if err != nil || len(rows) != eventRows {
		t.Fatalf("collected %d rows, error %v", len(rows), err)
	}
	if !reflect.DeepEqual(q.ch.dec, wire.ResultDecoder{}) {
		t.Error("End: the requester kept the stream's dictionaries")
	}
	if n := srv.svc.Stats().Caches.ResultEntries; n != 0 {
		t.Errorf("an answer over the per-entry cap was cached (%d entries)", n)
	}
	awaitServer()
	requireNoStreamState(t, "End", srv.svc, r)

	// Error: the deadline passes mid-stream.
	slow.TimeoutMillis = 150
	q = submit(slow)
	if _, err := q.Collect(); err == nil {
		t.Fatal("a query past its deadline succeeded")
	}
	if !reflect.DeepEqual(q.ch.dec, wire.ResultDecoder{}) {
		t.Error("Error: the requester kept the stream's dictionaries")
	}
	awaitServer()
	requireNoStreamState(t, "Error", srv.svc, r)

	// Cancel, Reject and a dropped query together: the first holds the only
	// slot, the second the only queue seat, the third is shed.
	slow.TimeoutMillis = 0
	running := submit(slow)
	queued := submit(slow)
	waitForQueued(t, srv.svc.adm, 1)
	shed := submit(wire.QuerySpec{Table: "dims"})
	var re *wire.RejectError
	if _, err := shed.Collect(); !errors.As(err, &re) {
		t.Fatalf("third query ended with %v, want a typed reject", err)
	}
	r.drop(queued.id) // the requester walks away from it
	if err := queued.Cancel(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the first stream a little
	if err := running.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := running.Collect(); !isCanceled(err) {
		t.Fatalf("cancelled query ended with %v", err)
	}
	if !reflect.DeepEqual(running.ch.dec, wire.ResultDecoder{}) {
		t.Error("cancel: the requester kept the stream's dictionaries")
	}
	awaitServer()
	requireNoStreamState(t, "cancel, reject and drop", srv.svc, r)
}
