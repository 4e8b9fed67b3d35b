package main

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
)

// The tracer records spans and counts at the seams the program already
// exposes: the certificate Signer, the credential-record Recorder, the
// journal Backend and its Segments, and the listeners handed to the
// gateway and the peer protocol. Nothing inside the program changes.
// Every wrapper checks the tracer's switch first, so with tracing off a
// wrapped call costs one atomic load and records nothing.
//
// Times are nanoseconds since the tracer's base on the monotonic clock.

// counter accumulates calls and busy time at one seam.
type counter struct{ calls, ns atomic.Int64 }

func (c *counter) add(ns int64) {
	c.calls.Add(1)
	c.ns.Add(ns)
}

// meanUS is the mean busy time per call in microseconds.
func (c *counter) meanUS() float64 {
	n := c.calls.Load()
	if n == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(n) / 1e3
}

// span is an engine call at the origin (certificate or credential-record
// layer). Its request id is assigned after the run, from the one
// request window that contains it.
type span struct{ start, end int64 }

// window is the server-side time of one request on a connection: from
// the read that returned its first byte to the write that sent the last
// byte of the answer. op is the gateway endpoint (HTTP) or whether the
// call was a validate (peer protocol); id is the generator's request id,
// read from the X-Bench-Req header (HTTP only).
type window struct {
	id         uint64
	op         int
	start, end int64
	in, out    int
}

// flip is the moment a ring member's surrogate record was invalidated.
type flip struct {
	member int
	ref    uint64
	at     int64
}

// Listener kinds.
const (
	connHTTP = iota
	connPeer
)

type tracer struct {
	clk   clock.Clock
	base  time.Time
	on    atomic.Bool
	epoch atomic.Int64 // counts the times tracing was switched on

	sign, verify         counter // origin Signer
	read, write          counter // every member's Recorder (Lookup/Valid/Resolve; New*/SetState/Invalidate/Mark*)
	originWrites         atomic.Int64
	jWrite, jSync, jSnap counter
	jBytes               atomic.Int64
	peerWrites           atomic.Int64 // socket writes on the origin's peer connections

	mu    sync.Mutex
	child []span
	flips []flip
	http  []window
	peer  []window
}

func newTracer(clk clock.Clock) *tracer {
	return &tracer{clk: clk, base: clk.Now()}
}

func (t *tracer) now() int64 { return int64(t.clk.Now().Sub(t.base)) }

// setOn switches tracing. A request window left open when tracing went
// off is dropped, not stretched into the next traced slice.
func (t *tracer) setOn(on bool) {
	if on {
		t.epoch.Add(1)
	}
	t.on.Store(on)
}

func (t *tracer) addChild(start, end int64) {
	t.mu.Lock()
	t.child = append(t.child, span{start, end})
	t.mu.Unlock()
}

// reset drops everything recorded so far, so a phase's figures cover
// that phase alone.
func (t *tracer) reset() {
	for _, c := range []*counter{&t.sign, &t.verify, &t.read, &t.write, &t.jWrite, &t.jSync, &t.jSnap} {
		c.calls.Store(0)
		c.ns.Store(0)
	}
	t.originWrites.Store(0)
	t.jBytes.Store(0)
	t.peerWrites.Store(0)
	t.mu.Lock()
	t.child, t.flips, t.http, t.peer = nil, nil, nil, nil
	t.mu.Unlock()
}

// tracedSigner wraps the origin's certificate signer (cert layer).
type tracedSigner struct {
	cert.Signer
	t *tracer
}

func (s tracedSigner) Sign(data []byte) []byte {
	if !s.t.on.Load() {
		return s.Signer.Sign(data)
	}
	start := s.t.now()
	sig := s.Signer.Sign(data)
	end := s.t.now()
	s.t.sign.add(end - start)
	s.t.addChild(start, end)
	return sig
}

func (s tracedSigner) Verify(data, sig []byte) bool {
	if !s.t.on.Load() {
		return s.Signer.Verify(data, sig)
	}
	start := s.t.now()
	ok := s.Signer.Verify(data, sig)
	end := s.t.now()
	s.t.verify.add(end - start)
	s.t.addChild(start, end)
	return ok
}

// tracedStore wraps a member's credential-record store (credrec layer).
// At the origin its spans are children of the request being served; at
// the other members an invalidation is a revocation reaching a watcher.
type tracedStore struct {
	credrec.Recorder
	t      *tracer
	member int // 0 is the origin
}

func (s *tracedStore) timed(write bool, start int64) {
	end := s.t.now()
	if write {
		s.t.write.add(end - start)
		if s.member == 0 {
			s.t.originWrites.Add(1)
		}
	} else {
		s.t.read.add(end - start)
	}
	if s.member == 0 {
		s.t.addChild(start, end)
	}
}

func (s *tracedStore) Lookup(ref credrec.Ref) (credrec.State, error) {
	if !s.t.on.Load() {
		return s.Recorder.Lookup(ref)
	}
	start := s.t.now()
	st, err := s.Recorder.Lookup(ref)
	s.timed(false, start)
	return st, err
}

func (s *tracedStore) Valid(ref credrec.Ref) bool {
	if !s.t.on.Load() {
		return s.Recorder.Valid(ref)
	}
	start := s.t.now()
	ok := s.Recorder.Valid(ref)
	s.timed(false, start)
	return ok
}

func (s *tracedStore) Resolve(ref credrec.Ref) (credrec.State, bool, error) {
	if !s.t.on.Load() {
		return s.Recorder.Resolve(ref)
	}
	start := s.t.now()
	st, perm, err := s.Recorder.Resolve(ref)
	s.timed(false, start)
	return st, perm, err
}

func (s *tracedStore) NewFact(st credrec.State) credrec.Ref {
	if !s.t.on.Load() {
		return s.Recorder.NewFact(st)
	}
	start := s.t.now()
	ref := s.Recorder.NewFact(st)
	s.timed(true, start)
	return ref
}

func (s *tracedStore) NewExternal(source string, st credrec.State) credrec.Ref {
	if !s.t.on.Load() {
		return s.Recorder.NewExternal(source, st)
	}
	start := s.t.now()
	ref := s.Recorder.NewExternal(source, st)
	s.timed(true, start)
	return ref
}

func (s *tracedStore) NewDerived(op credrec.Op, parents ...credrec.Parent) credrec.Ref {
	if !s.t.on.Load() {
		return s.Recorder.NewDerived(op, parents...)
	}
	start := s.t.now()
	ref := s.Recorder.NewDerived(op, parents...)
	s.timed(true, start)
	return ref
}

// mutate times one error-returning write; callers check the switch
// first, so the untraced path builds no closure.
func (s *tracedStore) mutate(ref credrec.Ref, f func(credrec.Ref) error) error {
	start := s.t.now()
	err := f(ref)
	s.timed(true, start)
	return err
}

func (s *tracedStore) SetState(ref credrec.Ref, st credrec.State) error {
	if !s.t.on.Load() {
		return s.Recorder.SetState(ref, st)
	}
	return s.mutate(ref, func(r credrec.Ref) error { return s.Recorder.SetState(r, st) })
}

func (s *tracedStore) Invalidate(ref credrec.Ref) error {
	if !s.t.on.Load() {
		return s.Recorder.Invalidate(ref)
	}
	err := s.mutate(ref, s.Recorder.Invalidate)
	if s.member > 0 {
		at := s.t.now()
		s.t.mu.Lock()
		s.t.flips = append(s.t.flips, flip{member: s.member, ref: ref.Uint64(), at: at})
		s.t.mu.Unlock()
	}
	return err
}

func (s *tracedStore) MakePermanent(ref credrec.Ref) error {
	if !s.t.on.Load() {
		return s.Recorder.MakePermanent(ref)
	}
	return s.mutate(ref, s.Recorder.MakePermanent)
}

func (s *tracedStore) MarkDirectUse(ref credrec.Ref) error {
	if !s.t.on.Load() {
		return s.Recorder.MarkDirectUse(ref)
	}
	return s.mutate(ref, s.Recorder.MarkDirectUse)
}

func (s *tracedStore) MarkNotify(ref credrec.Ref) error {
	if !s.t.on.Load() {
		return s.Recorder.MarkNotify(ref)
	}
	return s.mutate(ref, s.Recorder.MarkNotify)
}

func (s *tracedStore) MarkAutoRevoke(ref credrec.Ref) error {
	if !s.t.on.Load() {
		return s.Recorder.MarkAutoRevoke(ref)
	}
	return s.mutate(ref, s.Recorder.MarkAutoRevoke)
}

// tracedBackend wraps the journal's durable medium (journal layer):
// segment writes and syncs by the group committer, and snapshots.
type tracedBackend struct {
	storage.Backend
	t *tracer
}

func (b tracedBackend) CreateSegment(n uint64) (storage.Segment, error) {
	seg, err := b.Backend.CreateSegment(n)
	if err != nil {
		return nil, err
	}
	return tracedSegment{Segment: seg, t: b.t}, nil
}

func (b tracedBackend) WriteSnapshot(n uint64, write func(io.Writer) error) error {
	if !b.t.on.Load() {
		return b.Backend.WriteSnapshot(n, write)
	}
	start := b.t.now()
	err := b.Backend.WriteSnapshot(n, write)
	b.t.jSnap.add(b.t.now() - start)
	return err
}

type tracedSegment struct {
	storage.Segment
	t *tracer
}

func (s tracedSegment) Write(p []byte) (int, error) {
	if !s.t.on.Load() {
		return s.Segment.Write(p)
	}
	start := s.t.now()
	n, err := s.Segment.Write(p)
	s.t.jWrite.add(s.t.now() - start)
	s.t.jBytes.Add(int64(n))
	return n, err
}

func (s tracedSegment) Sync() error {
	if !s.t.on.Load() {
		return s.Segment.Sync()
	}
	start := s.t.now()
	err := s.Segment.Sync()
	s.t.jSync.add(s.t.now() - start)
	return err
}

// tracedListener wraps a server listener so each accepted connection
// records its request windows (HTTP framing or peer wire I/O).
type tracedListener struct {
	net.Listener
	t    *tracer
	kind int
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, kind: l.kind}, nil
}

// headCap bounds the request bytes kept per window: enough for the HTTP
// request line and headers, or a peer message's routing fields.
const headCap = 512

type tracedConn struct {
	net.Conn
	t    *tracer
	kind int

	mu    sync.Mutex // Read and Write run on different goroutines
	open  bool
	epoch int64 // the tracer's epoch when the open window began
	w     window
	head  []byte
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.t.on.Load() {
		at := c.t.now()
		ep := c.t.epoch.Load()
		c.mu.Lock()
		if !c.open || c.epoch != ep {
			c.open, c.epoch = true, ep
			c.w = window{start: at}
			c.head = c.head[:0]
		}
		c.w.in += n
		if room := headCap - len(c.head); room > 0 {
			c.head = append(c.head, p[:min(n, room)]...)
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if !c.t.on.Load() {
		return n, err
	}
	at := c.t.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kind == connPeer {
		c.t.peerWrites.Add(1)
	}
	if !c.open || c.epoch != c.t.epoch.Load() {
		c.open = false
		return n, err
	}
	c.open = false
	w := c.w
	w.end, w.out = at, n
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if c.kind == connHTTP {
		w.op, w.id = classifyHTTP(c.head)
		c.t.http = append(c.t.http, w)
	} else {
		if bytes.Contains(c.head, []byte("validate")) {
			w.op = 1
		}
		c.t.peer = append(c.t.peer, w)
	}
	return n, err
}

// classifyHTTP names the endpoint of a request from its first bytes and
// reads the generator's request id from the X-Bench-Req header.
func classifyHTTP(head []byte) (op int, id uint64) {
	op = -1
	for i, path := range httpPaths {
		if bytes.HasPrefix(head, []byte("POST "+path+" ")) {
			op = i
			break
		}
	}
	if i := bytes.Index(head, []byte(reqIDHeader+": ")); i >= 0 {
		rest := head[i+len(reqIDHeader)+2:]
		if j := bytes.IndexByte(rest, '\r'); j >= 0 {
			id, _ = strconv.ParseUint(string(rest[:j]), 10, 64)
		}
	}
	return op, id
}
