package exec

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"csq/internal/client"
	"csq/internal/expr"
	"csq/internal/netsim"
	"csq/internal/types"
	"csq/internal/wire"
)

// dupWorkload builds a duplicate-heavy relation: Blob cycles through
// `blobDistinct` large payloads, Uniq through `argDistinct` small values, so
// the argument pair (Blob, Uniq) has argDistinct distinct combinations
// (blobDistinct must divide argDistinct) while individual column values
// repeat much more often — the shape the wire dictionary exploits.
func dupWorkload(rows, blobDistinct, argDistinct, blobBytes int) ([]types.Tuple, *types.Schema) {
	schema := types.NewSchema(
		types.Column{Name: "Blob", Kind: types.KindBytes},
		types.Column{Name: "Uniq", Kind: types.KindInt},
		types.Column{Name: "Extra", Kind: types.KindBytes},
	)
	blobs := make([][]byte, blobDistinct)
	for i := range blobs {
		blobs[i] = make([]byte, blobBytes)
		for j := range blobs[i] {
			blobs[i][j] = byte(i*31 + j)
		}
	}
	out := make([]types.Tuple, rows)
	for i := 0; i < rows; i++ {
		extra := make([]byte, 24)
		extra[0] = byte(i)
		out[i] = types.NewTuple(
			types.NewBytes(blobs[i%blobDistinct]),
			types.NewInt(int64(i%argDistinct)),
			types.NewBytes(extra),
		)
	}
	return out, schema
}

// deriveRuntime hosts the Derive UDF: a result derived from the Blob argument
// only, so duplicate-heavy blobs also make the uplink duplicate-heavy.
func deriveRuntime(t testing.TB, resultBytes int) *client.Runtime {
	t.Helper()
	rt := client.NewRuntime()
	err := rt.Register(&client.Func{
		Name:       "Derive",
		ArgKinds:   []types.Kind{types.KindBytes, types.KindInt},
		ResultKind: types.KindBytes,
		ResultSize: resultBytes,
		Body: func(args []types.Value) (types.Value, error) {
			b, err := args[0].Bytes()
			if err != nil {
				return types.Value{}, err
			}
			out := make([]byte, resultBytes)
			for i := range out {
				out[i] = b[0] + byte(i)
			}
			return types.NewBytes(out), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func deriveBinding() UDFBinding {
	return UDFBinding{Name: "Derive", ArgOrdinals: []int{0, 1}, ResultKind: types.KindBytes, ResultName: "Derived"}
}

// keysOf renders tuples to comparable strings, their encodings, in order.
func keysOf(tuples []types.Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		enc, _ := types.EncodeTuple(nil, t)
		out[i] = string(enc)
	}
	return out
}

// TestSemiJoinParallelSessions: every session fan-out produces exactly the
// single-session output, in the same order.
func TestSemiJoinParallelSessions(t *testing.T) {
	rows, schema := dupWorkload(300, 5, 60, 64)
	run := func(sessions int) []string {
		t.Helper()
		rt := deriveRuntime(t, 48)
		op, err := NewSemiJoin(NewValuesScan(schema, rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{deriveBinding()})
		if err != nil {
			t.Fatal(err)
		}
		op.Sessions = sessions
		got, err := Collect(context.Background(), op)
		if err != nil {
			t.Fatalf("sessions=%d: %v", sessions, err)
		}
		if inv := op.NetStats().Invocations; inv != 60 {
			t.Errorf("sessions=%d: shipped %d arguments, want 60 (global dedup)", sessions, inv)
		}
		return keysOf(got)
	}
	want := run(1)
	if len(want) != 300 {
		t.Fatalf("baseline rows = %d", len(want))
	}
	for _, sessions := range []int{2, 4, 7} {
		got := run(sessions)
		if len(got) != len(want) {
			t.Fatalf("sessions=%d: %d rows, want %d", sessions, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sessions=%d: row %d differs", sessions, i)
			}
		}
	}
}

// TestClientJoinParallelSessions: the dealt/merged client-site join preserves
// the exact record order under every fan-out, including with a pushable
// predicate and projection (empty reply frames must keep the merge aligned).
func TestClientJoinParallelSessions(t *testing.T) {
	rows, schema := dupWorkload(240, 4, 48, 48)
	// Extended schema: 0 Blob, 1 Uniq, 2 Extra, 3 Derived. Keep Uniq >= 12,
	// return (Uniq, Derived).
	pushable := expr.NewBinary(expr.OpGe, expr.NewBoundColumnRef(1, types.KindInt), expr.NewConst(types.NewInt(12)))
	run := func(sessions int) []string {
		t.Helper()
		rt := deriveRuntime(t, 32)
		op, err := NewClientJoin(NewValuesScan(schema, rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{deriveBinding()})
		if err != nil {
			t.Fatal(err)
		}
		op.Sessions = sessions
		op.Pushable = pushable
		op.ProjectOrdinals = []int{1, 3}
		op.ShipBatchSize = 7 // not a divisor of the row count: exercises short frames
		got, err := Collect(context.Background(), op)
		if err != nil {
			t.Fatalf("sessions=%d: %v", sessions, err)
		}
		return keysOf(got)
	}
	want := run(1)
	if len(want) != 180 { // 48 distinct Uniq values, 36 of 48 pass ⇒ 240*36/48
		t.Fatalf("baseline rows = %d, want 180", len(want))
	}
	for _, sessions := range []int{2, 3, 5} {
		got := run(sessions)
		if len(got) != len(want) {
			t.Fatalf("sessions=%d: %d rows, want %d", sessions, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sessions=%d: row %d differs", sessions, i)
			}
		}
	}
}

// TestDialLinkConcurrentSessions exercises the session pool over a real TCP
// loopback — concurrent sessions on concurrent connections — under the race
// detector in CI.
func TestDialLinkConcurrentSessions(t *testing.T) {
	rt := deriveRuntime(t, 40)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = rt.ServeConn(wire.NewConn(conn)) }()
		}
	}()
	link := &DialLink{Addr: ln.Addr().String()}
	rows, schema := dupWorkload(200, 5, 40, 64)

	semi, err := NewSemiJoin(NewValuesScan(schema, rows), link, []UDFBinding{deriveBinding()})
	if err != nil {
		t.Fatal(err)
	}
	semi.Sessions = 4
	got, err := Collect(context.Background(), semi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("TCP parallel semi-join returned %d rows", len(got))
	}
	if inv := semi.NetStats().Invocations; inv != 40 {
		t.Errorf("TCP parallel semi-join shipped %d arguments, want 40", inv)
	}

	cj, err := NewClientJoin(NewValuesScan(schema, rows), link, []UDFBinding{deriveBinding()})
	if err != nil {
		t.Fatal(err)
	}
	cj.Sessions = 3
	cjRows, err := Collect(context.Background(), cj)
	if err != nil {
		t.Fatal(err)
	}
	if len(cjRows) != 200 {
		t.Fatalf("TCP parallel client join returned %d rows", len(cjRows))
	}
	for i := range got {
		if !sameRow(got[i], cjRows[i]) {
			t.Fatalf("row %d differs between TCP semi-join and client join", i)
		}
	}

	naive, err := newNaive(NewValuesScan(schema, rows), link, []UDFBinding{deriveBinding()})
	if err != nil {
		t.Fatal(err)
	}
	naive.Sessions = 4
	nRows, err := Collect(context.Background(), naive)
	if err != nil {
		t.Fatal(err)
	}
	if len(nRows) != 200 {
		t.Fatalf("TCP windowed naive returned %d rows", len(nRows))
	}
	if st := naive.NetStats(); st.Messages != 40 || st.Invocations != 40 {
		t.Errorf("TCP windowed naive sent %d frames of %d arguments, want 40 and 40", st.Messages, st.Invocations)
	}
}

// TestSemiJoinParallelEarlyClose: a consumer that closes the parallel
// semi-join after 5 rows must tear the whole session pool down without
// deadlocking.
func TestSemiJoinParallelEarlyClose(t *testing.T) {
	rows, schema := dupWorkload(400, 4, 100, 64)
	rt := deriveRuntime(t, 64)
	op, err := NewSemiJoin(NewValuesScan(schema, rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{deriveBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.Sessions = 4
	op.ConcurrencyFactor = 8
	done := make(chan error, 1)
	go func() {
		out, err := collectN(context.Background(), op, 5)
		if err == nil && len(out) != 5 {
			err = fmt.Errorf("pulled %d rows, want 5", len(out))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel early close deadlocked")
	}
}
