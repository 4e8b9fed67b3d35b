package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"oasis/internal/oasis"
)

// metric is one named figure of a run.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or base, printed beside the value
}

// endToEnd and perLayer are the metric names a run prints in its final
// JSON line, in BENCHMARK.json order (the smoke test checks they agree).
var endToEnd = []string{"setup_s", "cpu_us_per_op"}

var perLayer = []string{
	"gateway.server_us.introspect", "gateway.server_us.issue", "gateway.server_us.revoke",
	"gateway.self_us.introspect", "gateway.self_us.issue", "gateway.self_us.revoke",
	"gateway.bytes_in.introspect", "gateway.bytes_in.issue", "gateway.bytes_in.revoke",
	"gateway.bytes_out.introspect", "gateway.bytes_out.issue", "gateway.bytes_out.revoke",
	"gateway.shed_503", "gateway.limited_429",
	"http.client_us",
	"oasis.validate_us", "oasis.enter_us", "oasis.revoke_us",
	"oasis.audit.issued", "oasis.audit.validated", "oasis.audit.fraud", "oasis.audit.error", "oasis.audit.revocation",
	"cert.sign_calls", "cert.sign_us", "cert.verify_calls", "cert.verify_us", "cert.verify_per_validate",
	"credrec.read_calls", "credrec.read_us", "credrec.write_calls", "credrec.write_us", "credrec.live_end",
	"journal.write_calls", "journal.write_bytes", "journal.write_us",
	"journal.sync_calls", "journal.sync_us", "journal.ops_per_sync",
	"journal.snapshot_calls", "journal.snapshot_us",
	"bus.server_us.validate", "bus.bytes_per_call", "bus.msgs_per_write", "bus.dropped", "bus.pending_max",
	"tree.flip_us.depth1", "tree.flip_us.depth2", "tree.spread_us",
	"event.pending_max",
	"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_pause_us",
	"gen.late_p99_ms",
	"trace.overhead_pct", "trace.overhead_cpu_pct", "trace.unambiguous_share",
}

// pct returns the q-quantile (nearest rank) of xs, sorting xs.
func pct(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortRecords(rs []record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].due < rs[j].due })
}

// latency is a record's latency from its due time; a failed operation
// misses every latency limit.
func (r *record) latency() int64 {
	if !r.ok {
		return math.MaxInt64
	}
	return r.end - r.due
}

// opMetric names the end-to-end latency metrics of a kind.
func opMetric(k opKind) string {
	switch k {
	case kIntrospectLive, kIntrospectDead:
		return "introspect"
	case kIssue:
		return "issue"
	case kRevoke:
		return "revoke"
	case kValidate:
		return "validate_remote"
	case kPropagate:
		return "propagate"
	}
	return ""
}

// latencyMetrics turns the main phase's records into p50/p75/p90/p99
// metrics per operation, with their sample counts. They are printed but
// not in the result line: on a shared VM they follow the host's
// scheduling more than the program (NOTES.md).
func latencyMetrics(rs []record) []metric {
	by := map[string][]int64{}
	for i := range rs {
		name := opMetric(rs[i].kind)
		by[name] = append(by[name], rs[i].latency())
	}
	var out []metric
	for _, name := range []string{"introspect", "issue", "revoke", "validate_remote", "propagate"} {
		xs := by[name]
		note := fmt.Sprintf("n=%d", len(xs))
		out = append(out,
			metric{name + "_p50_ms", ms(pct(xs, 0.50)), "ms", note},
			metric{name + "_p75_ms", ms(pct(xs, 0.75)), "ms", note},
			metric{name + "_p90_ms", ms(pct(xs, 0.90)), "ms", note},
			metric{name + "_p99_ms", ms(pct(xs, 0.99)), "ms", note})
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// failures counts failed records.
func failures(rs []record) int {
	n := 0
	for i := range rs {
		if !rs[i].ok {
			n++
		}
	}
	return n
}

// tracedInputs is everything the per-layer figures are computed from.
type tracedInputs struct {
	sys              *system
	st               *state
	recs             []record // the traced run, its traced slices marked
	slices           int      // tracing on and off slices, alternating
	untracedP50      int64    // median latency of all operations, tracing off
	tracedP50        int64    // the same, tracing on
	untracedCPUPerOp float64  // process CPU ns per operation, tracing off
	cpuPerOp         float64  // process CPU ns per operation, tracing on
	audit0, audit1   oasis.Audit
	mallocs, allocB  uint64
	gcPauseNs        uint64
	replayValidateNs []int64
	replayEnterNs    []int64
	liveEnd          int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer figures of a traced run. Spans,
// windows and counts cover its traced slices; the audit, runtime and
// generator figures cover the whole run.
func layerMetrics(in tracedInputs) []metric {
	tr, sys, st := in.sys.tr, in.sys, in.st
	tr.mu.Lock()
	child := append([]span(nil), tr.child...)
	flips := append([]flip(nil), tr.flips...)
	httpWin := append([]window(nil), tr.http...)
	peerWin := append([]window(nil), tr.peer...)
	tr.mu.Unlock()
	sort.Slice(child, func(i, j int) bool { return child[i].start < child[j].start })

	byID := make(map[uint64]window, len(httpWin))
	for _, w := range httpWin {
		byID[w.id] = w
	}
	alone := unambiguous(in.recs) // over every operation: any overlap counts
	var traced []record
	var tracedAlone []bool
	for i := range in.recs {
		if in.recs[i].traced {
			traced = append(traced, in.recs[i])
			tracedAlone = append(tracedAlone, alone[i])
		}
	}

	var m []metric
	add := func(name string, v float64, unit, note string) { m = append(m, metric{name, v, unit, note}) }

	// gateway: server window, self time, bytes; client share.
	server := make([][]int64, len(httpPaths))
	self := make([][]int64, len(httpPaths))
	bytesIn := make([]int64, len(httpPaths))
	bytesOut := make([]int64, len(httpPaths))
	var client []int64
	httpOps, alonePlaced := 0, 0
	for i := range traced {
		r := &traced[i]
		ep := r.kind.endpoint()
		if ep < 0 {
			continue
		}
		httpOps++
		w, ok := byID[r.id]
		if !ok || !r.ok {
			continue
		}
		d := w.end - w.start
		server[ep] = append(server[ep], d)
		bytesIn[ep] += int64(w.in)
		bytesOut[ep] += int64(w.out)
		client = append(client, (r.end-r.began)-d)
		if tracedAlone[i] {
			alonePlaced++
			self[ep] = append(self[ep], d-covered(child, w.start, w.end))
		}
	}
	names := []string{"introspect", "issue", "revoke"}
	for ep, name := range names {
		add("gateway.server_us."+name, us(pct(server[ep], 0.5)), "us", fmt.Sprintf("median, n=%d", len(server[ep])))
	}
	for ep, name := range names {
		add("gateway.self_us."+name, us(pct(self[ep], 0.5)), "us", fmt.Sprintf("median over requests alone in flight, n=%d", len(self[ep])))
	}
	for ep, name := range names {
		add("gateway.bytes_in."+name, ratio(float64(bytesIn[ep]), float64(len(server[ep]))), "bytes", "per request")
	}
	for ep, name := range names {
		add("gateway.bytes_out."+name, ratio(float64(bytesOut[ep]), float64(len(server[ep]))), "bytes", "per request")
	}
	add("gateway.shed_503", float64(st.shed.Load()), "count", "")
	add("gateway.limited_429", float64(st.limited.Load()), "count", "")
	add("http.client_us", us(pct(client, 0.5)), "us", "median round trip minus server window")

	// oasis: engine replays and RevokeDirect at the origin.
	var revoke []int64
	checks := 0 // certificates presented to the origin for checking
	for i := range traced {
		r := &traced[i]
		switch r.kind {
		case kPropagate:
			checks += 2 // RevokeDirect, then the post-revocation validate
			if r.ok {
				revoke = append(revoke, r.revokeEnd-r.began)
			}
		case kValidate, kIntrospectLive, kIntrospectDead, kRevoke:
			checks++
		}
	}
	add("oasis.validate_us", us(pct(in.replayValidateNs, 0.5)), "us", fmt.Sprintf("median replay, n=%d", len(in.replayValidateNs)))
	add("oasis.enter_us", us(pct(in.replayEnterNs, 0.5)), "us", fmt.Sprintf("median replay, n=%d", len(in.replayEnterNs)))
	add("oasis.revoke_us", us(pct(revoke, 0.5)), "us", fmt.Sprintf("median RevokeDirect, n=%d", len(revoke)))
	a0, a1 := in.audit0, in.audit1
	add("oasis.audit.issued", float64(a1.Issued-a0.Issued), "count", "whole run")
	add("oasis.audit.validated", float64(a1.Validated-a0.Validated), "count", "")
	add("oasis.audit.fraud", float64(a1.FraudCount-a0.FraudCount), "count", "")
	add("oasis.audit.error", float64(a1.ErrorCount-a0.ErrorCount), "count", "")
	add("oasis.audit.revocation", float64(a1.Revocation-a0.Revocation), "count", "")

	// cert
	add("cert.sign_calls", float64(tr.sign.calls.Load()), "count", "")
	add("cert.sign_us", tr.sign.meanUS(), "us", "mean per call")
	add("cert.verify_calls", float64(tr.verify.calls.Load()), "count", "")
	add("cert.verify_us", tr.verify.meanUS(), "us", "mean per call")
	add("cert.verify_per_validate", ratio(float64(tr.verify.calls.Load()), float64(checks)), "ratio",
		fmt.Sprintf("Signer.Verify calls per certificate presented to the origin (introspect, revoke, remote validate, RevokeDirect), base %d", checks))

	// credrec
	add("credrec.read_calls", float64(tr.read.calls.Load()), "count", "all members")
	add("credrec.read_us", tr.read.meanUS(), "us", "mean per call")
	add("credrec.write_calls", float64(tr.write.calls.Load()), "count", "all members")
	add("credrec.write_us", tr.write.meanUS(), "us", "mean per call")
	add("credrec.live_end", float64(in.liveEnd), "count", "origin store")

	// journal
	add("journal.write_calls", float64(tr.jWrite.calls.Load()), "count", "")
	add("journal.write_bytes", float64(tr.jBytes.Load()), "bytes", "")
	add("journal.write_us", tr.jWrite.meanUS(), "us", "mean per segment write")
	add("journal.sync_calls", float64(tr.jSync.calls.Load()), "count", "")
	add("journal.sync_us", tr.jSync.meanUS(), "us", "mean per fsync")
	add("journal.ops_per_sync", ratio(float64(tr.originWrites.Load()), float64(tr.jSync.calls.Load())), "ratio",
		fmt.Sprintf("origin credential-record mutations per segment sync, base %d mutations", tr.originWrites.Load()))
	add("journal.snapshot_calls", float64(tr.jSnap.calls.Load()), "count", "")
	add("journal.snapshot_us", tr.jSnap.meanUS(), "us", "mean per snapshot")

	// bus: server windows of validate calls on the origin's peer connections.
	var busWin []int64
	var busBytes int64
	for _, w := range peerWin {
		if w.op == 1 {
			busWin = append(busWin, w.end-w.start)
			busBytes += int64(w.in + w.out)
		}
	}
	calls := 0
	for i := range traced {
		switch traced[i].kind {
		case kValidate:
			calls++
		case kPropagate:
			calls += ringSize // post-check validate + one shardwatch per watcher
		}
	}
	add("bus.server_us.validate", us(pct(busWin, 0.5)), "us", fmt.Sprintf("median, n=%d", len(busWin)))
	add("bus.bytes_per_call", ratio(float64(busBytes), float64(len(busWin))), "bytes", "request + reply")
	add("bus.msgs_per_write", ratio(float64(calls), float64(tr.peerWrites.Load())), "ratio",
		fmt.Sprintf("replies owed by the origin per socket write, base %d", calls))
	add("bus.dropped", float64(sys.dropped()), "count", "")
	add("bus.pending_max", float64(st.pendBus.Load()), "count", "sampled every 64 operations")

	// tree: flips per depth of the origin's dissemination tree.
	d1, d2, spread := treeFlips(traced, flips, sys)
	add("tree.flip_us.depth1", us(pct(d1, 0.5)), "us", fmt.Sprintf("median, n=%d", len(d1)))
	add("tree.flip_us.depth2", us(pct(d2, 0.5)), "us", fmt.Sprintf("median, n=%d", len(d2)))
	add("tree.spread_us", us(pct(spread, 0.5)), "us", fmt.Sprintf("median first-to-last flip, n=%d", len(spread)))
	add("event.pending_max", float64(st.pendBroker.Load()), "count", "sampled every 64 operations")

	// runtime and generator
	n := float64(len(in.recs))
	add("runtime.allocs_per_op", ratio(float64(in.mallocs), n), "count", "whole process, per operation")
	add("runtime.bytes_per_op", ratio(float64(in.allocB), n), "bytes", "whole process, per operation")
	add("runtime.gc_pause_us", float64(in.gcPauseNs)/1e3, "us", "total over the whole run")
	var late []int64
	for i := range in.recs {
		late = append(late, in.recs[i].began-in.recs[i].due)
	}
	add("gen.late_p99_ms", ms(pct(late, 0.99)), "ms", fmt.Sprintf("n=%d", len(late)))
	add("trace.overhead_pct", 100*ratio(float64(in.tracedP50-in.untracedP50), float64(in.untracedP50)), "%",
		fmt.Sprintf("median latency of all operations over %d alternating slices: traced %.4f ms, untraced %.4f ms",
			in.slices, ms(in.tracedP50), ms(in.untracedP50)))
	add("trace.overhead_cpu_pct", 100*ratio(in.cpuPerOp-in.untracedCPUPerOp, in.untracedCPUPerOp), "%",
		fmt.Sprintf("process CPU per operation over the same slices: traced %.1f us, untraced %.1f us", in.cpuPerOp/1e3, in.untracedCPUPerOp/1e3))
	add("trace.unambiguous_share", ratio(float64(alonePlaced), float64(httpOps)), "ratio",
		"traced HTTP requests whose child spans are attributed")
	return m
}

// unambiguous reports, per record, whether no other operation was in
// flight at any time during it: only then do the engine spans inside
// its server window belong to it alone.
func unambiguous(rs []record) []bool {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rs[idx[a]].began < rs[idx[b]].began })
	out := make([]bool, len(rs))
	maxEnd := int64(math.MinInt64)
	for k, i := range idx {
		r := &rs[i]
		alone := maxEnd <= r.began
		if k+1 < len(idx) && rs[idx[k+1]].began < r.end {
			alone = false
		}
		out[i] = alone
		if r.end > maxEnd {
			maxEnd = r.end
		}
	}
	return out
}

// covered is the length of [from, to] covered by spans lying wholly
// inside it; spans is sorted by start.
func covered(spans []span, from, to int64) int64 {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].start >= from })
	var total, reach int64 = 0, from
	for ; i < len(spans) && spans[i].start < to; i++ {
		s := spans[i]
		if s.end > to {
			continue
		}
		start := max(s.start, reach)
		if s.end > start {
			total += s.end - start
			reach = s.end
		}
	}
	return total
}

// treeFlips matches each watcher's invalidation to the revocation that
// caused it and groups the delays by the watcher's depth in the
// origin's tree.
func treeFlips(rs []record, flips []flip, sys *system) (d1, d2, spread []int64) {
	type key struct {
		member int
		ref    uint64
	}
	owner := map[key]*record{}
	for i := range rs {
		r := &rs[i]
		if r.kind != kPropagate || r.local == nil {
			continue
		}
		for j := 1; j < ringSize; j++ {
			owner[key{j, r.local[j].Uint64()}] = r
		}
	}
	first := map[*record]int64{}
	last := map[*record]int64{}
	for _, f := range flips {
		r := owner[key{f.member, f.ref}]
		if r == nil {
			continue
		}
		d := f.at - r.began
		switch sys.tree.Depth(originName, sys.members[f.member].name) {
		case 1:
			d1 = append(d1, d)
		case 2:
			d2 = append(d2, d)
		}
		if v, ok := first[r]; !ok || f.at < v {
			first[r] = f.at
		}
		if f.at > last[r] {
			last[r] = f.at
		}
	}
	for r, f := range first {
		spread = append(spread, last[r]-f)
	}
	return d1, d2, spread
}

// printMetrics writes one aligned line per metric.
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%-30s %14.4f %-6s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
