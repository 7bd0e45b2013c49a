// Package client implements the client-site UDF runtime: the counterpart of
// the paper's Java client process. It owns the user's functions (which never
// leave the client), executes them against argument tuples or full records
// shipped by the server, applies pushable predicates and projections before
// returning anything.
package client

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"

	"csq/internal/expr"
	"csq/internal/types"
	"csq/internal/wire"
)

// Func is a client-registered UDF implementation.
type Func struct {
	// Name is the SQL-visible function name.
	Name string
	// ArgKinds declares the parameter types (may be empty for variadic-ish
	// functions; arity is then unchecked).
	ArgKinds []types.Kind
	// ResultKind declares the return type.
	ResultKind types.Kind
	// ResultSize is the typical encoded result size in bytes, reported to the
	// server for costing (R in the paper).
	ResultSize int
	// Selectivity is the expected predicate selectivity for boolean UDFs.
	Selectivity float64
	// PerCallCost is the client CPU cost per invocation in arbitrary units.
	PerCallCost float64
	// Pure declares the function deterministic and side-effect free; the
	// server only result-caches queries whose UDFs are all declared pure.
	Pure bool
	// Body is the implementation. The args slice is a scratch buffer that is
	// only valid for the duration of the call; implementations must copy it
	// (not the values, which are immutable) if they retain it.
	Body func(args []types.Value) (types.Value, error)
}

// Validate checks the registration for obvious mistakes.
func (f *Func) Validate() error {
	if strings.TrimSpace(f.Name) == "" {
		return fmt.Errorf("client: function with empty name")
	}
	if f.Body == nil {
		return fmt.Errorf("client: function %q has no body", f.Name)
	}
	if f.ResultKind == types.KindInvalid {
		return fmt.Errorf("client: function %q has no result kind", f.Name)
	}
	return nil
}

// Runtime hosts client-site UDFs and serves UDF-execution sessions over a
// wire connection.
type Runtime struct {
	mu    sync.RWMutex
	funcs map[string]*Func
}

// NewRuntime returns an empty client runtime.
func NewRuntime() *Runtime {
	return &Runtime{funcs: make(map[string]*Func)}
}

// Register adds a UDF implementation to the runtime.
func (r *Runtime) Register(f *Func) error {
	if err := f.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := strings.ToLower(f.Name)
	if _, ok := r.funcs[k]; ok {
		return fmt.Errorf("client: function %q already registered", f.Name)
	}
	r.funcs[k] = f
	return nil
}

// Lookup finds a registered function by case-insensitive name.
func (r *Runtime) Lookup(name string) (*Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[strings.ToLower(name)]
	return f, ok
}

// Functions returns the registered functions sorted by name.
func (r *Runtime) Functions() []*Func {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Func, 0, len(r.funcs))
	for _, f := range r.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].Name) < strings.ToLower(out[j].Name)
	})
	return out
}

// Call invokes a registered function directly (used by in-process setups).
func (r *Runtime) Call(name string, args []types.Value) (types.Value, error) {
	f, ok := r.Lookup(name)
	if !ok {
		return types.Value{}, fmt.Errorf("client: unknown function %q", name)
	}
	if len(f.ArgKinds) > 0 && len(args) != len(f.ArgKinds) {
		return types.Value{}, fmt.Errorf("client: %s expects %d arguments, got %d", f.Name, len(f.ArgKinds), len(args))
	}
	return f.Body(args)
}

// Announce sends a MsgRegisterUDF for every registered function followed by
// an End(session 0) marker; the server uses these to populate its catalog.
func (r *Runtime) Announce(conn *wire.Conn) error {
	for _, f := range r.Functions() {
		msg := &wire.RegisterUDF{
			Name:        f.Name,
			ArgKinds:    f.ArgKinds,
			ResultKind:  f.ResultKind,
			ResultSize:  f.ResultSize,
			Selectivity: f.Selectivity,
			PerCallCost: f.PerCallCost,
			Pure:        f.Pure,
		}
		if err := conn.Send(wire.MsgRegisterUDF, wire.EncodeRegisterUDF(msg)); err != nil {
			return fmt.Errorf("client: announce %s: %w", f.Name, err)
		}
	}
	return conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: 0}))
}

// session is the per-SetupRequest execution state.
type session struct {
	req       *wire.SetupRequest
	udfs      []*Func
	predicate expr.Expr
	eval      *expr.Evaluator
	out       []types.Tuple // reusable uplink batch
	args      []types.Value // reusable UDF argument scratch
}

// ServeListener accepts connections on ln and serves each with ServeConn (no
// per-connection announcement — a query service learns about the client's
// UDFs through its control connection instead). It returns when the listener
// closes; per-connection errors only end their own connection. This is how a
// client runtime exposes itself on TCP for a udfserverd to dial sessions to.
func (r *Runtime) ServeListener(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("client: accept: %w", err)
		}
		go func() {
			c := wire.NewConn(conn)
			_ = r.ServeConn(c)
			_ = c.Close()
		}()
	}
}

// ServeConn handles an already-framed connection without announcing UDFs
// first (used when the server initiated registration differently, e.g. the
// in-process engine).
func (r *Runtime) ServeConn(conn *wire.Conn) error {
	sessions := make(map[uint64]*session)
	// One scratch batch per connection: the decoded tuples are consumed within
	// the handling of their frame, so the Tuples slice can be recycled across
	// frames (the values themselves live in per-frame arenas).
	var incoming wire.TupleBatch
	for {
		msg, err := conn.Receive()
		if err != nil {
			// ErrPeerClosed is the server hanging up cleanly on a frame
			// boundary; "closed" covers the transport being torn down under
			// us. Mid-frame truncation and everything else is a real error.
			if errors.Is(err, wire.ErrPeerClosed) || strings.Contains(err.Error(), "closed") {
				return nil
			}
			return err
		}
		switch msg.Type {
		case wire.MsgSetup:
			req, err := wire.DecodeSetup(msg.Payload)
			if err != nil {
				return fmt.Errorf("client: bad setup: %w", err)
			}
			s, setupErr := r.newSession(req)
			ack := &wire.SetupAck{SessionID: req.SessionID, OK: setupErr == nil}
			if setupErr != nil {
				ack.Error = setupErr.Error()
			} else {
				sessions[req.SessionID] = s
			}
			if err := conn.Send(wire.MsgSetupAck, wire.EncodeSetupAck(ack)); err != nil {
				return err
			}
		case wire.MsgTupleBatch:
			if err := wire.DecodeTupleBatchInto(&incoming, msg.Payload); err != nil {
				return fmt.Errorf("client: bad tuple batch: %w", err)
			}
			s, ok := sessions[incoming.SessionID]
			if !ok {
				if err := r.sendError(conn, incoming.SessionID, "unknown session"); err != nil {
					return err
				}
				continue
			}
			out, procErr := r.processBatch(s, incoming.Tuples)
			if procErr != nil {
				if err := r.sendError(conn, incoming.SessionID, procErr.Error()); err != nil {
					return err
				}
				continue
			}
			reply := wire.TupleBatch{SessionID: incoming.SessionID, Seq: incoming.Seq, Tuples: out}
			if err := wire.SendBatch(conn, &reply, wire.MsgResultBatch); err != nil {
				return err
			}
		case wire.MsgEnd:
			// Servers that predate ending a query by closing its sessions end
			// each one with End and wait for the echo. The client keeps no
			// rows, so the echo delivers none.
			end, err := wire.DecodeEnd(msg.Payload)
			if err != nil {
				return fmt.Errorf("client: bad end: %w", err)
			}
			delete(sessions, end.SessionID)
			if err := conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: end.SessionID})); err != nil {
				return err
			}
		case wire.MsgProbe:
			p, err := wire.DecodeProbe(msg.Payload)
			if err != nil {
				return fmt.Errorf("client: bad probe: %w", err)
			}
			if p.EchoBytes == 0 {
				continue
			}
			if p.EchoBytes > wire.MaxFrameSize/2 {
				if err := r.sendError(conn, 0, "probe echo too large"); err != nil {
					return err
				}
				continue
			}
			echo := wire.Probe{Seq: p.Seq, Payload: make([]byte, p.EchoBytes)}
			if err := conn.Send(wire.MsgProbe, wire.AppendProbe(nil, &echo)); err != nil {
				return err
			}
		case wire.MsgError:
			e, err := wire.DecodeError(msg.Payload)
			if err != nil {
				return fmt.Errorf("client: bad error message: %w", err)
			}
			delete(sessions, e.SessionID)
		default:
			return fmt.Errorf("client: unexpected message %s", msg.Type)
		}
	}
}

func (r *Runtime) sendError(conn *wire.Conn, session uint64, msg string) error {
	return conn.Send(wire.MsgError, wire.EncodeError(&wire.ErrorMsg{SessionID: session, Message: msg}))
}

// newSession validates a setup request against the registry and prepares the
// evaluation state.
func (r *Runtime) newSession(req *wire.SetupRequest) (*session, error) {
	if req.Mode != wire.ModeSemiJoin && req.Mode != wire.ModeClientJoin {
		return nil, fmt.Errorf("unknown execution mode %d", req.Mode)
	}
	if req.InputSchema == nil || req.InputSchema.Len() == 0 {
		return nil, fmt.Errorf("setup has no input schema")
	}
	if req.FinalDelivery {
		// The rows would have nowhere to go: the client runtime keeps none.
		return nil, fmt.Errorf("setup asks for final delivery (flag bit 0), which this client does not serve")
	}
	s := &session{req: req, eval: &expr.Evaluator{}}
	for _, spec := range req.UDFs {
		f, ok := r.Lookup(spec.Name)
		if !ok {
			return nil, fmt.Errorf("UDF %q is not registered at the client", spec.Name)
		}
		for _, o := range spec.ArgOrdinals {
			if o < 0 || o >= req.InputSchema.Len() {
				return nil, fmt.Errorf("UDF %q argument ordinal %d out of range", spec.Name, o)
			}
		}
		s.udfs = append(s.udfs, f)
	}
	if len(req.PushablePredicate) > 0 {
		pred, err := expr.Unmarshal(req.PushablePredicate)
		if err != nil {
			return nil, fmt.Errorf("bad pushable predicate: %w", err)
		}
		s.predicate = pred
		// Function calls inside the pushable predicate are served by this
		// runtime's registry (they are, by construction, client UDFs or
		// builtins).
		s.eval.Invoke = r.Call
		if err := expr.ResolveFunctions(pred, nil); err != nil {
			// Unresolved functions fall back to the Invoke path; this is not
			// an error as long as the registry can serve them at eval time.
			_ = err
		}
	}
	for _, o := range req.ProjectOrdinals {
		max := req.InputSchema.Len() + len(req.UDFs)
		if o < 0 || o >= max {
			return nil, fmt.Errorf("projection ordinal %d out of range [0,%d)", o, max)
		}
	}
	return s, nil
}

// processBatch runs the session's UDFs (and pushable operations) over a batch
// of shipped tuples and returns what should go back on the uplink. The
// returned slice and its tuples are valid until the next processBatch call on
// the same session: the tuples share one per-batch arena and the slice is the
// session's reusable scratch, which is exactly the lifetime the serve loop
// needs (encode the reply, then move on).
func (r *Runtime) processBatch(s *session, tuples []types.Tuple) (_ []types.Tuple, err error) {
	// A panicking UDF must surface as a session error frame, not kill the
	// whole connection: the server classifies an error frame as fatal and
	// fails just that query, instead of redialing into the same panic.
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("UDF panicked: %v", rec)
		}
	}()
	inWidth := s.req.InputSchema.Len()
	extWidth := inWidth + len(s.udfs)
	out := s.out[:0]
	// One arena backs every extended record of the batch (plus its pushable
	// projection, which appends to the same arena in client-join mode).
	perTuple := extWidth
	if s.req.Mode == wire.ModeClientJoin {
		perTuple += len(s.req.ProjectOrdinals)
	}
	arena := make([]types.Value, 0, len(tuples)*perTuple)
	for _, in := range tuples {
		if in.Len() != inWidth {
			return nil, fmt.Errorf("tuple arity %d does not match shipped schema %d", in.Len(), inWidth)
		}
		start := len(arena)
		arena = append(arena, in...)
		for i, f := range s.udfs {
			spec := s.req.UDFs[i]
			if cap(s.args) < len(spec.ArgOrdinals) {
				s.args = make([]types.Value, len(spec.ArgOrdinals))
			}
			args := s.args[:len(spec.ArgOrdinals)]
			for j, o := range spec.ArgOrdinals {
				args[j] = arena[start+o]
			}
			v, err := f.Body(args)
			if err != nil {
				return nil, fmt.Errorf("UDF %s: %w", f.Name, err)
			}
			arena = append(arena, v)
		}
		extended := types.Tuple(arena[start:len(arena):len(arena)])
		// Pushable predicate filters before anything is returned.
		if s.predicate != nil {
			keep, err := s.eval.EvalBool(s.predicate, extended)
			if err != nil {
				return nil, fmt.Errorf("pushable predicate: %w", err)
			}
			if !keep {
				arena = arena[:start]
				continue
			}
		}
		switch {
		case s.req.Mode == wire.ModeSemiJoin:
			// Return only the UDF results; the server joins them back.
			out = append(out, extended[inWidth:])
		case len(s.req.ProjectOrdinals) > 0:
			from := len(arena)
			for _, o := range s.req.ProjectOrdinals {
				if o < 0 || o >= len(extended) {
					return nil, fmt.Errorf("pushable projection: types: projection ordinal %d out of range [0,%d)", o, len(extended))
				}
				arena = append(arena, extended[o])
			}
			out = append(out, types.Tuple(arena[from:len(arena):len(arena)]))
		default:
			out = append(out, extended)
		}
	}
	s.out = out
	return out, nil
}
