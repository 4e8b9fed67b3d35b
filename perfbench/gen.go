package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// The load generator is open-loop: operation i of a phase is due at
// start + i/rate whatever happened to earlier ones, and its latency runs
// from that due time, so a stall shows in every request it delays. A
// fixed set of workers (at most nproc goroutines, each owning one
// keep-alive gateway connection) claims operations in order, builds the
// request, waits until it is due, runs it and checks the answer after
// the clock has stopped.

// opKind is one kind of client-visible operation.
type opKind int

const (
	kIntrospectLive opKind = iota // POST /v1/introspect of a live token
	kIntrospectDead               // POST /v1/introspect of a revoked token
	kIssue                        // POST /v1/token
	kRevoke                       // POST /v1/revoke (token form)
	kValidate                     // remote validate from a ring member to the origin
	kPropagate                    // RevokeDirect at the origin until the last watcher flipped
	numKinds
)

// HTTP endpoints, indexed by the op field of an HTTP window.
const (
	epIntrospect = iota
	epIssue
	epRevoke
)

var httpPaths = []string{"/v1/introspect", "/v1/token", "/v1/revoke"}

func (k opKind) endpoint() int {
	switch k {
	case kIntrospectLive, kIntrospectDead:
		return epIntrospect
	case kIssue:
		return epIssue
	case kRevoke:
		return epRevoke
	}
	return -1
}

// reqIDHeader carries the generator's request id to the server-side
// window, so the spans of one request share an id. The gateway ignores
// unknown headers.
const reqIDHeader = "X-Bench-Req"

const (
	roleName = "LoggedOn"
	// flipDeadline bounds how long a revocation may take to reach all
	// fifteen watchers before it counts as failed.
	flipDeadline = 2 * time.Second
	// recentDead is how many of the latest revocations introspection of
	// revoked tokens draws from.
	recentDead = 256
)

// bootTime is the fixed boot time of the generator's client identities.
var bootTime = time.Date(1997, 5, 27, 9, 0, 0, 0, time.UTC)

// token is one gateway token the generator holds.
type token struct {
	tok    string
	client string
	cert   *cert.RMC
}

// slot is one certificate of the origin that every other ring member
// watches through an imported surrogate.
type slot struct {
	cert  *cert.RMC
	local []credrec.Ref // surrogate per member index; [0] unused
	gen   uint64        // bumped when the slot is revoked and re-issued
	busy  bool          // a revocation of this slot is in flight
}

// state is what the generator knows about the system: its tokens and
// watched certificates, and the expected answer for each.
type state struct {
	sys *system
	tr  *tracer

	mu      sync.Mutex
	live    []*token // never revoked: introspection must say active
	dead    []*token // revoked: introspection must say inactive
	fresh   []*token // issued during the run and not yet revoked
	reserve []*token // population set aside as revocation targets
	slots   []*slot
	nextRev int

	clients atomic.Uint64 // issued client identities

	// replay inputs for the traced run's engine replays
	enters []oasis.EnterRequest

	shed, limited atomic.Int64 // 503 and 429 answers
	pendBus       atomic.Int64 // max sampled bus backlog
	pendBroker    atomic.Int64 // max sampled broker backlog
}

// record is one operation's outcome. Times are tracer-relative ns.
type record struct {
	kind            opKind
	id              uint64
	due, began, end int64
	ok              bool
	abandoned       bool          // not begun by the phase's deadline
	traced          bool          // traced run: began while tracing was on
	revokeEnd       int64         // kPropagate: when RevokeDirect returned
	local           []credrec.Ref // kPropagate: surrogates revoked
	err             string
}

// worker is one generator goroutine with its own gateway connection.
type worker struct {
	st    *state
	conn  net.Conn
	br    *bufio.Reader
	req   []byte
	body  bytes.Buffer
	rng   *rand.Rand
	recs  []record
	timer *timer
}

func newWorker(st *state, idx int, seed int64) (*worker, error) {
	t, err := newTimer()
	if err != nil {
		return nil, err
	}
	w := &worker{st: st, rng: rand.New(rand.NewSource(seed*7919 + int64(idx))), timer: t}
	return w, w.dial()
}

func (w *worker) dial() error {
	if w.conn != nil {
		_ = w.conn.Close()
	}
	c, err := net.Dial("tcp", w.st.sys.httpAddr)
	if err != nil {
		w.conn = nil
		return fmt.Errorf("dialing gateway: %w", err)
	}
	w.conn, w.br = c, bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (w *worker) close() {
	if w.conn != nil {
		_ = w.conn.Close()
		w.conn = nil
	}
	if w.timer != nil {
		w.timer.close()
		w.timer = nil
	}
}

// op is one prepared operation: everything built before it is due.
type op struct {
	kind   opKind
	id     uint64
	tok    *token
	enter  *oasis.EnterRequest
	slot   *slot
	cert   *cert.RMC // kValidate: the slot's certificate when prepared
	gen    uint64
	member int
}

// buildHTTP writes the request bytes for o into w.req.
func (w *worker) buildHTTP(o *op, body []byte) {
	b := w.req[:0]
	b = append(b, "POST "...)
	b = append(b, httpPaths[o.kind.endpoint()]...)
	b = append(b, " HTTP/1.1\r\nHost: oasis\r\nContent-Type: application/json\r\n"...)
	b = append(b, reqIDHeader+": "...)
	b = strconv.AppendUint(b, o.id, 10)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	w.req = append(b, body...)
}

// tokenBody is the request body of introspection and of token-form
// revocation, which share the shape {"token": ...}.
func tokenBody(tok string) []byte {
	b, _ := json.Marshal(gateway.IntrospectRequest{Token: tok}) // a string field cannot fail
	return b
}

// newEnter makes a fresh client's entry request.
func (st *state) newEnter() oasis.EnterRequest {
	n := st.clients.Add(1)
	return oasis.EnterRequest{
		Client:   ids.ClientID{Host: "bench", ID: n, BootTime: bootTime},
		Rolefile: rolefileID,
		Role:     roleName,
		Args: []value.Value{
			value.Object("Login.userid", "u"+strconv.FormatUint(n, 10)),
			value.Object("Login.host", "h"+strconv.FormatUint(n%64, 10)),
		},
	}
}

// prepare picks the target of an operation and builds its request.
func (w *worker) prepare(kind opKind, id uint64, pick uint32) (op, bool) {
	st := w.st
	o := op{kind: kind, id: id}
	switch kind {
	case kIntrospectLive, kIntrospectDead:
		st.mu.Lock()
		pool := st.live
		if kind == kIntrospectDead {
			pool = st.dead
			if len(pool) > recentDead {
				pool = pool[len(pool)-recentDead:]
			}
		}
		if len(pool) == 0 {
			st.mu.Unlock()
			return o, false
		}
		o.tok = pool[int(pick)%len(pool)]
		st.mu.Unlock()
		w.buildHTTP(&o, tokenBody(o.tok.tok))
	case kIssue:
		req := st.newEnter()
		o.enter = &req
		body, err := json.Marshal(gateway.TokenRequest{
			Client: req.Client, Rolefile: req.Rolefile, Role: req.Role, Args: req.Args,
		})
		if err != nil {
			return o, false
		}
		w.buildHTTP(&o, body)
	case kRevoke:
		st.mu.Lock()
		switch {
		case len(st.fresh) > 0:
			o.tok, st.fresh = st.fresh[0], st.fresh[1:]
		case len(st.reserve) > 0:
			o.tok, st.reserve = st.reserve[len(st.reserve)-1], st.reserve[:len(st.reserve)-1]
		case len(st.live) > 1:
			o.tok, st.live = st.live[len(st.live)-1], st.live[:len(st.live)-1]
		}
		st.mu.Unlock()
		if o.tok == nil {
			return o, false
		}
		w.buildHTTP(&o, tokenBody(o.tok.tok))
	case kValidate:
		st.mu.Lock()
		for tries := 0; tries < len(st.slots); tries++ {
			s := st.slots[(int(pick)+tries)%len(st.slots)]
			if !s.busy {
				o.slot, o.cert, o.gen = s, s.cert, s.gen
				break
			}
		}
		st.mu.Unlock()
		if o.slot == nil {
			return o, false
		}
		o.member = 1 + int(pick>>8)%(ringSize-1)
	case kPropagate:
		st.mu.Lock()
		for tries := 0; tries < len(st.slots); tries++ {
			s := st.slots[st.nextRev%len(st.slots)]
			st.nextRev++
			if !s.busy {
				s.busy = true
				o.slot = s
				break
			}
		}
		st.mu.Unlock()
		if o.slot == nil {
			return o, false
		}
	}
	return o, true
}

// execute runs a prepared operation that was due at due, checks the
// answer and returns its record.
func (w *worker) execute(o *op, due int64) record {
	tr := w.st.tr
	r := record{kind: o.kind, id: o.id, due: due, began: tr.now()}
	var err error
	switch o.kind {
	case kValidate:
		err = w.validate(o, &r)
	case kPropagate:
		err = w.propagate(o, &r)
	default:
		err = w.gatewayOp(o, &r)
	}
	r.ok = err == nil
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// roundTrip sends w.req and reads one response into w.body.
func (w *worker) roundTrip() (int, error) {
	if w.conn == nil {
		if err := w.dial(); err != nil {
			return 0, err
		}
	}
	if _, err := w.conn.Write(w.req); err != nil {
		w.close()
		return 0, fmt.Errorf("sending request: %w", err)
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		w.close()
		return 0, fmt.Errorf("reading response: %w", err)
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read to its end or failed
	if err != nil {
		w.close()
		return 0, fmt.Errorf("reading response body: %w", err)
	}
	return resp.StatusCode, nil
}

// gatewayOp runs one HTTP operation and checks its answer.
func (w *worker) gatewayOp(o *op, r *record) error {
	st := w.st
	status, err := w.roundTrip()
	r.end = st.tr.now()
	if err != nil {
		return err
	}
	switch status {
	case http.StatusServiceUnavailable:
		st.shed.Add(1)
	case http.StatusTooManyRequests:
		st.limited.Add(1)
	}
	body := w.body.Bytes()
	switch o.kind {
	case kIntrospectLive:
		return checkIntrospect(status, body, true, o.tok.client)
	case kIntrospectDead:
		return checkIntrospect(status, body, false, "")
	case kIssue:
		t, err := checkIssue(status, body, o.enter.Client)
		if err != nil {
			return err
		}
		st.mu.Lock()
		st.fresh = append(st.fresh, t)
		if len(st.enters) < maxReplays {
			st.enters = append(st.enters, *o.enter)
		}
		st.mu.Unlock()
	case kRevoke:
		if err := checkRevoke(status, body); err != nil {
			return err
		}
		st.mu.Lock()
		st.dead = append(st.dead, o.tok)
		if len(st.dead) > 4*recentDead {
			st.dead = append(st.dead[:0], st.dead[len(st.dead)-recentDead:]...)
		}
		st.mu.Unlock()
	}
	return nil
}

// remoteValidate asks the origin, from member m over the peer
// protocol, to validate c.
func (st *state) remoteValidate(m int, c *cert.RMC) (any, error) {
	mb := st.sys.members[m]
	return mb.net.Call(mb.name, originName, "validate", oasis.ValidateArg{Cert: c, Client: c.Client})
}

func (w *worker) validate(o *op, r *record) error {
	st := w.st
	res, err := st.remoteValidate(o.member, o.cert)
	r.end = st.tr.now()
	st.mu.Lock()
	// A revocation of the slot racing this call may or may not have
	// landed when the origin answered: then either state is right.
	changed := o.slot.busy || o.slot.gen != o.gen
	st.mu.Unlock()
	if changed {
		return checkValidate(res, err, false, true)
	}
	return checkValidate(res, err, true, false)
}

// propagate revokes a watched certificate at the origin and waits
// until every other member's surrogate is permanently false; then it
// checks that remote validation of the revoked certificate is no
// longer True and re-issues the slot, so the watched set stays
// constant.
func (w *worker) propagate(o *op, r *record) error {
	st := w.st
	sys := st.sys
	s := o.slot
	r.local = s.local
	err := sys.origin().svc.RevokeDirect(s.cert)
	r.revokeEnd = st.tr.now()
	if err == nil {
		err = checkFlips(func(j int) (credrec.State, bool) {
			state, perm, _ := sys.members[j].store.Recorder.Resolve(s.local[j])
			return state, perm
		}, sys.clk, flipDeadline)
	}
	r.end = st.tr.now()
	if err == nil {
		res, verr := st.remoteValidate(1+w.rng.Intn(ringSize-1), s.cert)
		err = checkValidate(res, verr, false, false)
	}
	if rerr := st.refill(s); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// refill issues a fresh certificate into the slot and has every other
// member import its credential record.
func (st *state) refill(s *slot) error {
	o := st.sys.origin()
	req := st.newEnter()
	c, err := o.svc.IssueDirect(req.Client, req.Rolefile, req.Role, req.Args)
	if err != nil {
		return fmt.Errorf("re-issuing watched certificate: %w", err)
	}
	local := make([]credrec.Ref, ringSize)
	for j := 1; j < ringSize; j++ {
		if local[j], err = st.sys.members[j].svc.ImportShardRecord(originName, c.CRR); err != nil {
			return fmt.Errorf("importing at %s: %w", st.sys.members[j].name, err)
		}
	}
	st.mu.Lock()
	s.cert, s.local = c, local
	s.gen++
	s.busy = false
	st.mu.Unlock()
	return nil
}

// samplePending records the notification backlogs; workers call it
// every few operations, so sampling needs no goroutine of its own.
func (st *state) samplePending() {
	b, e := st.sys.pending()
	for cur := st.pendBus.Load(); int64(b) > cur && !st.pendBus.CompareAndSwap(cur, int64(b)); cur = st.pendBus.Load() {
	}
	for cur := st.pendBroker.Load(); int64(e) > cur && !st.pendBroker.CompareAndSwap(cur, int64(e)); cur = st.pendBroker.Load() {
	}
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	start  int64   // due time of operation 0
	period float64 // ns between due times
	kinds  []opKind
	picks  []uint32
	stopBy int64 // operations not begun by then are abandoned
	next   atomic.Int64
}

// newPhase draws the phase's operation sequence from the seed.
func newPhase(mix *[numKinds]float64, rate float64, dur time.Duration, seed int64) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	ph := &phase{period: 1e9 / rate, kinds: make([]opKind, n), picks: make([]uint32, n)}
	for i := range ph.kinds {
		ph.kinds[i] = pickKind(mix, rng.Float64())
		ph.picks[i] = rng.Uint32()
	}
	return ph
}

// pickKind maps x in [0, 1) to a kind by the mix's shares; rounding
// can only ever land on a kind the mix runs.
func pickKind(mix *[numKinds]float64, x float64) opKind {
	last := opKind(0)
	for k := opKind(0); k < numKinds; k++ {
		if mix[k] == 0 {
			continue
		}
		if x < mix[k] {
			return k
		}
		x -= mix[k]
		last = k
	}
	return last
}

// run drives the phase with every worker and returns the records in
// due order. Operations not begun overrun after the phase's scheduled
// end are abandoned and recorded as such.
func (st *state) run(ws []*worker, ph *phase, firstID uint64, overrun time.Duration) []record {
	const lead = 2 * time.Millisecond
	ph.start = st.tr.now() + int64(lead)
	ph.stopBy = ph.start + int64(float64(len(ph.kinds))*ph.period) + int64(overrun)
	var wg sync.WaitGroup
	for _, w := range ws {
		w.recs = w.recs[:0]
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.drive(ph, firstID)
		}(w)
	}
	wg.Wait()
	var out []record
	for _, w := range ws {
		out = append(out, w.recs...)
	}
	sortRecords(out)
	return out
}

func (w *worker) drive(ph *phase, firstID uint64) {
	st := w.st
	for {
		i := ph.next.Add(1) - 1
		if int(i) >= len(ph.kinds) {
			return
		}
		due := ph.start + int64(float64(i)*ph.period)
		o, ok := w.prepare(ph.kinds[i], firstID+uint64(i), ph.picks[i])
		now := st.tr.now()
		if !ok {
			w.recs = append(w.recs, record{kind: o.kind, id: o.id, due: due, began: now, end: now,
				err: "no target for the operation in the generator's state"})
			continue
		}
		if now > ph.stopBy {
			if o.kind == kPropagate {
				st.mu.Lock()
				o.slot.busy = false
				st.mu.Unlock()
			}
			w.recs = append(w.recs, record{kind: o.kind, id: o.id, due: due, began: now, end: now,
				abandoned: true, err: "abandoned: not begun by the phase's deadline"})
			continue
		}
		if err := w.timer.waitUntil(st.tr, due); err != nil {
			w.recs = append(w.recs, record{kind: o.kind, id: o.id, due: due, began: st.tr.now(), end: st.tr.now(), err: err.Error()})
			continue
		}
		w.recs = append(w.recs, w.execute(&o, due))
		if i%64 == 0 {
			st.samplePending()
		}
	}
}

// closedLoop runs n operations of one kind back to back on every
// worker (set-up population, not measured) and fails on the first
// wrong answer.
func (st *state) closedLoop(ws []*worker, kind opKind, n int) error {
	var next atomic.Int64
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for int(next.Add(1)) <= n {
				o, ok := w.prepare(kind, 0, w.rng.Uint32())
				if !ok {
					errs[i] = fmt.Errorf("population: no target for %v", kind)
					return
				}
				if r := w.execute(&o, st.tr.now()); !r.ok {
					errs[i] = fmt.Errorf("population: %s", r.err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Population sizes.
const (
	popLive    = 2048 // live tokens introspected throughout the run
	popDead    = 256  // tokens revoked in set-up
	popReserve = 1024 // revocation targets before the run's own issues
	popSlots   = 32   // watched certificates on the ring
)

// populate issues the initial tokens over the gateway and the watched
// certificates on the ring; it is part of set-up.
func (st *state) populate(ws []*worker) error {
	if err := st.closedLoop(ws, kIssue, popLive+popDead+popReserve); err != nil {
		return err
	}
	st.mu.Lock()
	all := st.fresh
	st.fresh = nil
	st.live = all[:popLive]
	st.fresh = append([]*token(nil), all[popLive:popLive+popDead]...)
	st.reserve = append([]*token(nil), all[popLive+popDead:]...)
	st.enters = st.enters[:0]
	st.mu.Unlock()
	if err := st.closedLoop(ws, kRevoke, popDead); err != nil {
		return err
	}
	for i := 0; i < popSlots; i++ {
		s := &slot{busy: true}
		if err := st.refill(s); err != nil {
			return err
		}
		st.slots = append(st.slots, s)
	}
	return nil
}

// checkIssue checks a token response and returns the token it carries.
func checkIssue(status int, body []byte, client ids.ClientID) (*token, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("issue: status %d: %s", status, bytes.TrimSpace(body))
	}
	var res gateway.TokenResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("issue: undecodable answer: %w", err)
	}
	if res.Token == "" || res.Cert == nil || res.Cert.Client != client ||
		len(res.Roles) != 1 || res.Roles[0] != roleName || res.Issuer != originName {
		return nil, fmt.Errorf("issue: wrong answer %s", bytes.TrimSpace(body))
	}
	return &token{tok: res.Token, client: client.String(), cert: res.Cert}, nil
}

// checkIntrospect checks an introspection answer: a live token must be
// active with its issued role and client, a revoked one inactive.
func checkIntrospect(status int, body []byte, wantActive bool, client string) error {
	if status != http.StatusOK {
		return fmt.Errorf("introspect: status %d: %s", status, bytes.TrimSpace(body))
	}
	var res gateway.IntrospectResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("introspect: undecodable answer: %w", err)
	}
	if res.Active != wantActive {
		return fmt.Errorf("introspect: active=%v, want %v", res.Active, wantActive)
	}
	if wantActive && (len(res.Roles) != 1 || res.Roles[0] != roleName || res.Client != client) {
		return fmt.Errorf("introspect: wrong answer %s", bytes.TrimSpace(body))
	}
	return nil
}

// checkRevoke checks a revocation acknowledgement.
func checkRevoke(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("revoke: status %d: %s", status, bytes.TrimSpace(body))
	}
	var res gateway.RevokeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("revoke: undecodable answer: %w", err)
	}
	if !res.OK {
		return fmt.Errorf("revoke: not acknowledged")
	}
	return nil
}

// checkValidate checks a remote validation reply: a live certificate
// must validate True; a revoked one must not. With either, only a
// well-formed reply is required.
func checkValidate(res any, err error, wantTrue, either bool) error {
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	reply, ok := res.(oasis.ValidateReply)
	if !ok {
		return fmt.Errorf("validate: reply of type %T", res)
	}
	if either {
		return nil
	}
	if wantTrue && (reply.State != credrec.True || len(reply.Roles) != 1 || reply.Roles[0] != roleName) {
		return fmt.Errorf("validate: live certificate answered %v %v", reply.State, reply.Roles)
	}
	if !wantTrue && reply.State == credrec.True {
		return fmt.Errorf("validate: revoked certificate still True")
	}
	return nil
}

// checkFlips waits until every watcher (members 1..ringSize-1) reports
// its surrogate permanently False, or fails once the deadline passes,
// naming the members that never flipped.
func checkFlips(surrogate func(j int) (credrec.State, bool), clk clock.Clock, deadline time.Duration) error {
	limit := clk.Now().Add(deadline)
	for {
		var stale []int
		for j := 1; j < ringSize; j++ {
			if st, perm := surrogate(j); st != credrec.False || !perm {
				stale = append(stale, j)
			}
		}
		if len(stale) == 0 {
			return nil
		}
		if clk.Now().After(limit) {
			return fmt.Errorf("propagate: members %v never saw the revocation within %v", stale, deadline)
		}
		<-clk.After(50 * time.Microsecond)
	}
}
