package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
)

// TestCheckersRejectWrongAnswers plants wrong answers in front of each
// checker; every one must be reported as a failure.
func TestCheckersRejectWrongAnswers(t *testing.T) {
	const client = "bench/7@870008400"
	live := `{"active":true,"issuer":"Login","rolefile":"main","roles":["LoggedOn"],"client":"` + client + `"}`
	cases := []struct {
		name string
		err  error
	}{
		{"revoked token reported active", checkIntrospect(200, []byte(live), false, "")},
		{"live token reported inactive", checkIntrospect(200, []byte(`{"active":false}`), true, client)},
		{"live token with another client", checkIntrospect(200, []byte(live), true, "bench/8@870008400")},
		{"introspect answer undecodable", checkIntrospect(200, []byte(`{"active":`), false, "")},
		{"introspect non-2xx", checkIntrospect(503, []byte(`{"error":"overloaded"}`), false, "")},
		{"revoke not acknowledged", checkRevoke(200, []byte(`{"ok":false}`))},
		{"revoke refused", checkRevoke(429, []byte(`{"error":"rate_limited"}`))},
		{"remote validate of revoked cert True", checkValidate(oasis.ValidateReply{State: credrec.True, Roles: []string{roleName}}, nil, false, false)},
		{"remote validate of live cert False", checkValidate(oasis.ValidateReply{State: credrec.False, Roles: []string{roleName}}, nil, true, false)},
		{"remote validate transport error", checkValidate(nil, os.ErrDeadlineExceeded, false, true)},
		{"remote validate wrong reply type", checkValidate("True", nil, true, false)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: checker accepted it", c.name)
		}
	}
	if _, err := checkIssue(200, []byte(`{"access_token":"x","roles":["Other"]}`), bootClient(7)); err == nil {
		t.Error("issue with the wrong role: checker accepted it")
	}
	if err := checkIntrospect(200, []byte(live), true, client); err != nil {
		t.Errorf("right introspection rejected: %v", err)
	}
	if err := checkValidate(oasis.ValidateReply{State: credrec.False}, nil, false, false); err != nil {
		t.Errorf("right revoked answer rejected: %v", err)
	}
}

// TestFlipCheckerDeadline plants a watcher that never sees the
// revocation: the check must fail once the deadline passes, naming it.
func TestFlipCheckerDeadline(t *testing.T) {
	clk := clock.Real()
	stuck := func(j int) (credrec.State, bool) {
		if j == 9 {
			return credrec.True, false
		}
		return credrec.False, true
	}
	err := checkFlips(stuck, clk, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "[9]") {
		t.Fatalf("a member that never flips was not reported: %v", err)
	}
	all := func(int) (credrec.State, bool) { return credrec.False, true }
	if err := checkFlips(all, clk, 20*time.Millisecond); err != nil {
		t.Fatalf("all members flipped, check failed: %v", err)
	}
}

// TestPlantedFailuresAreCounted runs real operations against a deployed
// cluster with two planted faults — a live token filed as revoked, and a
// watcher whose surrogate is not the record being revoked — and checks
// that both operations are counted as failed while clean ones pass.
func TestPlantedFailuresAreCounted(t *testing.T) {
	clk := clock.Real()
	tr := newTracer(clk)
	d, err := setUp(clk, tr, config{wl: &workloads[0], workers: 1, tmp: t.TempDir(), seed: 1, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	st, w := d.st, d.ws[0]

	exec := func(kind opKind) record {
		o, ok := w.prepare(kind, 1, 0)
		if !ok {
			t.Fatalf("no target for %v", kind)
		}
		return w.execute(&o, tr.now())
	}
	for _, k := range []opKind{kIntrospectLive, kIntrospectDead, kIssue, kRevoke, kValidate, kPropagate} {
		if r := exec(k); !r.ok {
			t.Fatalf("clean %s failed: %s", opMetric(k), r.err)
		}
	}

	st.mu.Lock()
	st.dead = append(st.dead, st.live[0]) // a live token the checker expects inactive
	st.mu.Unlock()
	planted := false
	for i := 0; i < 2*recentDead && !planted; i++ {
		o, _ := w.prepare(kIntrospectDead, 1, uint32(i))
		if o.tok != st.live[0] {
			continue
		}
		planted = true
		if r := w.execute(&o, tr.now()); r.ok {
			t.Error("a revoked token reported active was not counted as failed")
		}
	}
	if !planted {
		t.Fatal("planted token never picked")
	}

	st.mu.Lock()
	s := st.slots[st.nextRev%len(st.slots)]
	local := append([]credrec.Ref(nil), s.local...)
	local[5] = d.sys.members[5].store.NewFact(credrec.True) // never revoked
	s.local = local
	st.mu.Unlock()
	t0 := clk.Now()
	if r := exec(kPropagate); r.ok {
		t.Error("a watcher that never flips was not counted as failed")
	} else if !strings.Contains(r.err, "[5]") {
		t.Errorf("failure does not name the stuck watcher: %s", r.err)
	}
	if waited := clk.Now().Sub(t0); waited < flipDeadline {
		t.Errorf("gave up after %v, before the %v deadline", waited, flipDeadline)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test compares.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, and checks the result line names exactly the metrics
// BENCHMARK.json declares, with their units, and that every answer was
// right.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the cluster six times")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, wl := range workloads {
		declared = append(declared, wl.name)
	}
	var listed []string
	for _, wl := range spec.Workloads {
		listed = append(listed, wl.Name)
	}
	if !slices.Equal(declared, listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", declared, listed)
	}
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := bench(config{wl: wl, seed: 3, seconds: 1, trace: trace, root: "..", tmp: t.TempDir(),
				workers: runtime.NumCPU(), setups: 1}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestRefusesOversubscription checks the benchmark never runs with more
// generator goroutines, connections or GOMAXPROCS than the machine has
// cores.
func TestRefusesOversubscription(t *testing.T) {
	nproc := runtime.NumCPU()
	if _, err := bench(config{wl: &workloads[0], workers: nproc + 1, setups: 1}, io.Discard); err == nil {
		t.Error("more workers than nproc accepted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc + 1))
	var errOut bytes.Buffer
	if _, err := parseFlags([]string{"-workload", "gateway-read", "-root", ".."}, &errOut); err == nil {
		t.Errorf("GOMAXPROCS=%d accepted with nproc=%d", nproc+1, nproc)
	}
}

func bootClient(n uint64) ids.ClientID {
	return ids.ClientID{Host: "bench", ID: n, BootTime: bootTime}
}
