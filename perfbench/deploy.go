package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
	"oasis/internal/gateway"
	"oasis/internal/oasis"
)

// The deployment mirrors cmd/oasisd: run() builds each service and
// newGateway builds the gateway. One process holds the whole cluster:
//
//   - the origin "Login" runs as `oasisd -name Login -store-dir DIR
//     -sync batched -snapshot-every 4096 -http-listen 127.0.0.1:0
//     -peer-listen 127.0.0.1:0 -shard-ring <all 16> -remote ...`,
//     without -store-dir (an in-memory store) for revoke-tree;
//   - fifteen more members M01..M15 run as `oasisd -name Mxx
//     -peer-listen 127.0.0.1:0 -shard-ring <all 16> -remote ...` with
//     in-memory stores.
//
// Every member has its own bus.Network with the binary wire codec and
// real loopback TCP links to every other member (a full mesh of
// -remote flags), runs heartbeats and failure suspicion, and installs
// oasisd's built-in Login rolefile.
//
// Departures from oasisd, all deliberate:
//   - the gateway's per-client rate is set above the offered load
//     (-http-rate 1e6): every request comes from one loopback address,
//     so oasisd's default of 50/s would refuse almost all of them;
//   - the seams are wrapped (tracedSigner, tracedStore, tracedBackend,
//     tracedListener); the origin's signer is the HMAC signer oasis.New
//     would create, wrapped;
//   - the client JSON front (oasisd -listen) is not started: no
//     workload uses it;
//   - source-state transitions are counted instead of logged.

const (
	originName = "Login"
	ringSize   = 16
	rolefileID = "main"

	// loginRolefile is oasisd's built-in rolefile.
	loginRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`
	httpRate      = 1e6  // per-client budget, above any offered load
	httpMaxConns  = 1024 // oasisd -http-max-conns default
	httpPressure  = 4096 // oasisd -http-pressure default
	snapshotEvery = 4096 // oasisd -snapshot-every default
	failsafe      = 3    // oasisd -failsafe-missed default
)

type member struct {
	name  string
	net   *bus.Network
	svc   *oasis.Service
	store *tracedStore
	ln    net.Listener
}

// system is one deployed cluster.
type system struct {
	clk      clock.Clock
	tr       *tracer
	members  []*member // [0] is the origin
	tree     *bus.Tree
	eng      *storage.Engine
	dir      string
	httpLn   net.Listener
	httpAddr string

	stops   []func()
	serving sync.WaitGroup

	snapErrs     atomic.Int64
	sourceEvents atomic.Int64
}

func (s *system) origin() *member { return s.members[0] }

// deploy starts the cluster. With journal, the origin's store is
// journaled in a directory under tmpRoot.
func deploy(clk clock.Clock, tr *tracer, tmpRoot string, journal bool) (sys *system, err error) {
	oasis.RegisterWireTypes()
	sys = &system{clk: clk, tr: tr}
	defer func() {
		if err != nil {
			sys.teardown()
		}
	}()
	if journal {
		if err = sys.openJournal(tmpRoot); err != nil {
			return sys, err
		}
	}

	names := make([]string, ringSize)
	names[0] = originName
	for i := 1; i < ringSize; i++ {
		names[i] = fmt.Sprintf("M%02d", i)
	}
	for i, name := range names {
		m := &member{name: name, net: bus.NewNetwork(clk)}
		opts := oasis.Options{
			FailsafeMissed: failsafe,
			AutoResync:     true,
			OnSourceState:  func(string, oasis.SourceState, oasis.SourceState) { sys.sourceEvents.Add(1) },
		}
		var inner credrec.Recorder = credrec.NewStore()
		if i == 0 {
			if sys.eng != nil {
				inner = sys.eng.Store()
			}
			opts.Signer = tracedSigner{Signer: cert.NewHMACSigner([]byte("svc-secret:"+name), 16), t: tr}
		}
		m.store = &tracedStore{Recorder: inner, t: tr, member: i}
		opts.Store = m.store
		if m.svc, err = oasis.New(name, clk, m.net, opts); err != nil {
			return sys, err
		}
		if err = m.svc.AddRolefile(rolefileID, loginRolefile); err != nil {
			return sys, err
		}
		if err = m.svc.JoinShardRing(names, 0); err != nil {
			return sys, fmt.Errorf("joining shard ring: %w", err)
		}
		if m.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return sys, err
		}
		ln := m.ln
		if i == 0 {
			ln = tracedListener{Listener: ln, t: tr, kind: connPeer}
		}
		sys.serving.Add(1)
		go func(nw *bus.Network) {
			defer sys.serving.Done()
			_ = nw.ServeTCP(ln) // returns once the listener closes
		}(m.net)
		sys.members = append(sys.members, m)
	}
	// The origin's dissemination tree, as JoinShardRing builds it: it
	// names each watcher's depth for the tree.flip_us figures.
	if sys.tree, err = bus.NewTree(names, 0); err != nil {
		return sys, err
	}
	for _, m := range sys.members {
		for _, peer := range sys.members {
			if peer == m {
				continue
			}
			if err = m.net.AddRemote(peer.name, peer.ln.Addr().String()); err != nil {
				return sys, fmt.Errorf("join %s at %s: %w", peer.name, peer.ln.Addr(), err)
			}
		}
	}
	for _, m := range sys.members {
		sys.stops = append(sys.stops, m.svc.StartHeartbeats(), m.svc.StartSuspicion())
	}

	o := sys.origin()
	gw := gateway.New(o.svc, gateway.Options{
		RatePerSec:    httpRate,
		MaxConns:      httpMaxConns,
		PressureLimit: httpPressure,
		Pressure:      o.svc.ClusterPendingNotifications,
	})
	if sys.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return sys, err
	}
	sys.httpAddr = sys.httpLn.Addr().String()
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		_ = gw.Serve(tracedListener{Listener: sys.httpLn, t: tr, kind: connHTTP}) // returns once the listener closes
	}()
	return sys, nil
}

// openJournal opens the origin's journaled store in a new directory
// under tmpRoot, as oasisd -store-dir -sync batched does.
func (s *system) openJournal(tmpRoot string) error {
	var err error
	if s.dir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
		return err
	}
	be, err := storage.OpenDir(s.dir)
	if err != nil {
		return fmt.Errorf("opening store dir: %w", err)
	}
	s.eng, err = storage.Open(tracedBackend{Backend: be, t: s.tr}, storage.Options{
		Sync:                credrec.SyncBatched,
		SnapshotEveryOps:    snapshotEvery,
		SweepBeforeSnapshot: true,
		OnSnapshotError:     func(error) { s.snapErrs.Add(1) },
	})
	if err != nil {
		return fmt.Errorf("recovering store: %w", err)
	}
	return nil
}

// teardown stops the cluster and waits for its listeners to return.
// Clients must have closed their gateway connections first.
func (s *system) teardown() {
	for _, stop := range s.stops {
		stop()
	}
	if s.httpLn != nil {
		_ = s.httpLn.Close()
	}
	for _, m := range s.members {
		m.net.CloseRemotes()
	}
	for _, m := range s.members {
		if m.ln != nil {
			_ = m.ln.Close()
		}
	}
	s.serving.Wait()
	if s.eng != nil {
		_ = s.eng.Close() // the store is discarded with its directory
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// pending samples the notification backlogs: the bus delay and batch
// queues and the event brokers' session outboxes, summed over members.
func (s *system) pending() (busPending, brokerPending int) {
	for _, m := range s.members {
		busPending += m.net.PendingNotifications()
		brokerPending += m.svc.Broker().PendingNotifications()
	}
	return busPending, brokerPending
}

// dropped is every notification the buses report lost. Network.Dropped
// already counts each link's RemoteDropped, so it is summed once.
func (s *system) dropped() int64 {
	var n int64
	for _, m := range s.members {
		n += m.net.Dropped()
	}
	return n
}
