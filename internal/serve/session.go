package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/obs"
)

// Session errors. ErrClosed covers explicit deletion and daemon
// shutdown; ErrEvicted is the idle-eviction flavor so clients can tell
// "you closed it" from "it aged out".
var (
	ErrClosed  = errors.New("session closed")
	ErrEvicted = errors.New("session evicted (idle)")
)

// Session is one hosted simulation: a machine (core.System) or a
// cluster (cluster.Cluster), its event collector and its SSE router.
// All mutation — stepping, fault injection, metrics export — runs as
// commands, each on the goroutine that asked for it, one at a time per
// session (the session's turn) and within the registry's worker
// budget, so the deterministic single-goroutine contract of the
// underlying machinery is preserved no matter how many clients poke
// the API concurrently.
type Session struct {
	// ID is the registry-assigned identifier ("s1", "s2", ...).
	ID string
	// Spec echoes the creation request after defaulting.
	Spec SessionSpec

	reg     *Registry
	col     *obs.Collector
	router  Router
	tracker *obs.EpisodeTracker

	// Exactly one of sys/clu is set, per Spec.Kind.
	sys *core.System
	inj *fault.Injector
	clu *cluster.Cluster

	// turn is the session's one command slot: a command holds it while
	// it runs. done is closed when the session closes.
	turn chan struct{}
	done chan struct{}

	mu sync.Mutex
	// closeErr is why the session closed; nil while it is open.
	//ssos:guarded-by mu
	closeErr error

	// blocks/blockInstrs/blockBails mirror the machine's superblock
	// telemetry for the concurrent-safe Prometheus scrape: refreshed at
	// the end of every Run command (the only command that advances the
	// counters), read without taking the session's turn. Always zero
	// for cluster sessions.
	blocks      atomic.Uint64
	blockInstrs atomic.Uint64
	blockBails  atomic.Uint64

	// created and lastTouch are registry logical-clock stamps, guarded
	// by the registry mutex (not this one).
	created   uint64
	lastTouch uint64
}

// runChunk bounds one uninterrupted stretch of a Run command: a
// machine session advances at most this many steps, a cluster session
// one epoch, between checks of the request context and of the
// session's closure. Run(a) then Run(b) is Run(a+b) for both kinds, so
// chunking changes no result; it bounds how long a request keeps its
// worker slot after the client has gone or the session has closed.
const runChunk = 1 << 20

// MaxRunSteps caps the machine steps one run request may ask for: a
// machine session's steps, or a cluster session's epochs times its
// epoch length. A larger request is refused before it waits. The
// cap is 1,024 run chunks, and it fits a 32-bit int, so a request means
// the same on every word size.
const MaxRunSteps = 1 << 30

// sessionConsoleCap bounds every console of a machine session: legality
// is judged online (Instrument's tracker) and status reads only the
// write count, so nothing reads a console's history.
const sessionConsoleCap = 1

// newSession builds the simulation a spec describes. The construction
// path is shared with the batch CLIs (LookupImage + core.New /
// cluster.New), which is half of the determinism bridge; running its
// commands one at a time is the other half.
func newSession(id string, sp SessionSpec) (*Session, error) {
	img, err := sp.normalize()
	if err != nil {
		return nil, err
	}
	s := &Session{
		ID:      id,
		Spec:    sp,
		col:     obs.NewCollector(),
		tracker: obs.NewEpisodeTracker(),
		turn:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// The hook runs under the collector lock; both consumers are cheap
	// and never call back into the collector. Feeding the tracker here —
	// rather than from a reader — is what keeps the live episode fold in
	// lockstep with the event stream: a client that observes event idx
	// also observes every episode transition that event caused.
	s.col.Hook = func(_ int, e obs.Event) {
		s.tracker.Feed(e)
		s.router.Publish()
	}
	switch sp.Kind {
	case KindMachine:
		cfg := img.Cfg
		if sp.Period > 0 {
			cfg.WatchdogPeriod = sp.Period
		}
		cfg.DisableNMICounter = sp.StockNMI
		cfg.ConsoleCap = sessionConsoleCap
		sys, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		sys.Instrument(s.col)
		s.sys = sys
		// The injector is seeded at construction but draws randomness
		// only per injection, so a session that injects at step T sees
		// the exact fault bytes ssos-run -seed would.
		s.inj = fault.NewInjector(sys.M, sp.Seed)
	case KindCluster:
		if img.Cfg != (core.Config{Approach: img.Cfg.Approach}) {
			return nil, fmt.Errorf("image %q carries machine-only options; cluster sessions take plain approach images", img.Name)
		}
		mode, err := cluster.ParseFaultMode(faultsOrNone(sp.Faults))
		if err != nil {
			return nil, err
		}
		clu, err := cluster.New(cluster.Config{
			Replicas:    sp.Replicas,
			Approach:    img.Cfg.Approach,
			EpochSteps:  sp.EpochSteps,
			Seed:        sp.Seed,
			Faults:      mode,
			StrikeEvery: sp.StrikeEvery,
			StrikeProb:  sp.StrikeProb,
			Collector:   s.col,
		})
		if err != nil {
			return nil, err
		}
		s.clu = clu
	}
	return s, nil
}

func faultsOrNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// do runs fn as one command on the calling goroutine. It waits for
// the session's turn, then for a slot of the registry's worker budget,
// so commands on one session run one at a time and at most Workers
// commands run at once. While it waits, ctx ending or the session
// closing returns that error at once, and fn never runs; a Run command
// checks both again before each of its chunks.
func do[T any](ctx context.Context, s *Session, fn func() (T, error)) (T, error) {
	var zero T
	if err := s.take(ctx, s.turn); err != nil {
		return zero, err
	}
	defer func() { <-s.turn }()
	if err := s.take(ctx, s.reg.slots); err != nil {
		return zero, err
	}
	defer func() { <-s.reg.slots }()
	// A select picks at random among ready cases, so a slot may have
	// been taken after ctx ended or the session closed.
	if err := s.interrupted(ctx); err != nil {
		return zero, err
	}
	return fn()
}

// take waits for a free slot in ch and fills it, or returns why the
// command should not wait any longer.
func (s *Session) take(ctx context.Context, ch chan struct{}) error {
	select {
	case ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return s.interrupted(ctx)
	}
}

// interrupted reports why a command should not start, or a running one
// should stop at its next chunk boundary: its request's context ended,
// or the session closed.
func (s *Session) interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// close marks the session closed with the given error and ends its
// live streams. A command already executing stops at its next chunk
// boundary (the simulation is never interrupted mid-step); commands
// waiting for their turn fail fast. Idempotent.
func (s *Session) close(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closeErr != nil {
		return
	}
	s.closeErr = err
	close(s.done)
	s.router.Close()
}

// RunRequest asks to advance a session: Steps for machine sessions,
// Epochs for cluster sessions.
type RunRequest struct {
	Steps  int `json:"steps,omitempty"`
	Epochs int `json:"epochs,omitempty"`
}

// FaultRequest asks for one on-demand injection. Kind is a machine
// fault class (FaultKinds) for machine sessions or a cluster strike
// mode other than none (cluster.FaultModes) for cluster sessions;
// Replica selects the strike target in a cluster.
type FaultRequest struct {
	Kind    string `json:"kind"`
	Replica int    `json:"replica,omitempty"`
}

// FaultResult reports the faults an injection request landed.
type FaultResult struct {
	Injected []string `json:"injected"`
}

// MachineStatus is the machine-session slice of a Status. Blocks,
// BlockInstrs and BlockBails are superblock-engine telemetry: how much
// of the run retired through batch-validated blocks and how often
// validation bailed to the interpreter.
type MachineStatus struct {
	Steps       uint64 `json:"steps"`
	Instrs      uint64 `json:"instrs"`
	NMIs        uint64 `json:"nmis"`
	IRQs        uint64 `json:"irqs"`
	Exceptions  uint64 `json:"exceptions"`
	Resets      uint64 `json:"resets"`
	Heartbeats  uint64 `json:"heartbeats"`
	Blocks      uint64 `json:"blocks"`
	BlockInstrs uint64 `json:"block_instrs"`
	BlockBails  uint64 `json:"block_bails"`
}

// ClusterStatus is the cluster-session slice of a Status.
type ClusterStatus struct {
	Replicas     int     `json:"replicas"`
	Quorum       int     `json:"quorum"`
	Epochs       int     `json:"epochs"`
	LegalEpochs  int     `json:"legal_epochs"`
	Availability float64 `json:"availability"`
	Evictions    int     `json:"evictions"`
	FreshBoots   int     `json:"fresh_boots"`
}

// Status is a session snapshot: identity, retention counters, and the
// kind-specific progress block.
type Status struct {
	ID          string         `json:"id"`
	Kind        string         `json:"kind"`
	Image       string         `json:"image"`
	Seed        int64          `json:"seed"`
	Events      int            `json:"events"`
	Subscribers int            `json:"subscribers"`
	CreatedOp   uint64         `json:"created_op"`
	LastTouchOp uint64         `json:"last_touch_op"`
	Machine     *MachineStatus `json:"machine,omitempty"`
	Cluster     *ClusterStatus `json:"cluster,omitempty"`
}

// status assembles a Status. Must run as a command (it reads live
// machine state).
func (s *Session) status() *Status {
	st := &Status{
		ID:          s.ID,
		Kind:        s.Spec.Kind,
		Image:       s.Spec.Image,
		Seed:        s.Spec.Seed,
		Events:      s.col.Len(),
		Subscribers: s.router.Subscribers(),
	}
	st.CreatedOp, st.LastTouchOp = s.reg.stamps(s)
	switch {
	case s.sys != nil:
		m := &MachineStatus{
			Steps:       s.sys.M.Stats.Steps,
			Instrs:      s.sys.M.Stats.Instrs,
			NMIs:        s.sys.M.Stats.NMIs,
			IRQs:        s.sys.M.Stats.IRQs,
			Exceptions:  s.sys.M.Stats.Exceptions,
			Resets:      s.sys.M.Stats.Resets,
			Blocks:      s.sys.M.Stats.Blocks,
			BlockInstrs: s.sys.M.Stats.BlockInstrs,
			BlockBails:  s.sys.M.Stats.BlockBails,
		}
		if s.sys.Heartbeat != nil {
			m.Heartbeats = s.sys.Heartbeat.Total()
		}
		st.Machine = m
	case s.clu != nil:
		sum := s.clu.Summary()
		st.Cluster = &ClusterStatus{
			Replicas:     sum.Replicas,
			Quorum:       s.clu.Quorum(),
			Epochs:       sum.Epochs,
			LegalEpochs:  sum.LegalEpochs,
			Availability: sum.Availability,
			Evictions:    sum.Evictions,
			FreshBoots:   sum.FreshBoots,
		}
	}
	return st
}

// Status returns a session snapshot, taken as a command. When ctx ends
// before its turn comes it returns ctx's error at once.
func (s *Session) Status(ctx context.Context) (*Status, error) {
	return do(ctx, s, func() (*Status, error) { return s.status(), nil })
}

// Run advances the session per the request and returns the resulting
// status. It runs in chunks of runChunk steps (machine) or one epoch
// (cluster) and stops between chunks, with ctx's error or the session's
// closure error, once ctx ends or the session closes; the chunks already
// run stay run.
func (s *Session) Run(ctx context.Context, req RunRequest) (*Status, error) {
	if err := s.checkRun(req); err != nil {
		return nil, err
	}
	return do(ctx, s, func() (*Status, error) {
		switch {
		case s.sys != nil:
			defer func() {
				s.blocks.Store(s.sys.M.Stats.Blocks)
				s.blockInstrs.Store(s.sys.M.Stats.BlockInstrs)
				s.blockBails.Store(s.sys.M.Stats.BlockBails)
			}()
			for left := req.Steps; left > 0; left -= runChunk {
				if err := s.interrupted(ctx); err != nil {
					return nil, err
				}
				s.sys.Run(min(left, runChunk))
			}
		case s.clu != nil:
			for range req.Epochs {
				if err := s.interrupted(ctx); err != nil {
					return nil, err
				}
				s.clu.Run(1)
			}
		}
		return s.status(), nil
	})
}

// checkRun refuses a run request with no work in it or more machine
// steps than MaxRunSteps.
func (s *Session) checkRun(req RunRequest) error {
	switch {
	case s.sys != nil:
		if req.Steps <= 0 {
			return fmt.Errorf("machine session: run wants steps > 0")
		}
		if req.Steps > MaxRunSteps {
			return fmt.Errorf("machine session: run wants at most %d steps (MaxRunSteps), got %d", MaxRunSteps, req.Steps)
		}
	case s.clu != nil:
		if req.Epochs <= 0 {
			return fmt.Errorf("cluster session: run wants epochs > 0")
		}
		if per := s.clu.EpochSteps(); req.Epochs > MaxRunSteps/per {
			return fmt.Errorf("cluster session: run wants at most %d epochs of %d steps (MaxRunSteps %d), got %d",
				MaxRunSteps/per, per, MaxRunSteps, req.Epochs)
		}
	}
	return nil
}

// Inject lands one on-demand fault. A fault whose ctx ends before its
// turn comes is never injected; one that has started lands whole.
func (s *Session) Inject(ctx context.Context, req FaultRequest) (*FaultResult, error) {
	return do(ctx, s, func() (*FaultResult, error) {
		switch {
		case s.sys != nil:
			before := len(s.inj.Log)
			if err := InjectFault(s.sys, s.inj, req.Kind); err != nil {
				return nil, err
			}
			res := &FaultResult{}
			for _, rec := range s.inj.Log[before:] {
				res.Injected = append(res.Injected, rec.String())
			}
			return res, nil
		default:
			mode, err := cluster.ParseFaultMode(req.Kind)
			if err != nil {
				return nil, err
			}
			if mode == cluster.ModeNone {
				return nil, fmt.Errorf("fault kind %q injects nothing", req.Kind)
			}
			if err := s.clu.Strike(req.Replica, mode); err != nil {
				return nil, err
			}
			return &FaultResult{Injected: []string{
				fmt.Sprintf("replica %d %v", req.Replica, mode),
			}}, nil
		}
	})
}

// Metrics returns the session's stabilization-metrics registry,
// assembled exactly as the batch CLIs would at this point in the run:
// the collector registry plus the machine counters (machine sessions)
// or the per-replica merge and availability gauges (cluster sessions),
// plus the episode counters and latency histograms folded from the
// live tracker — the same RecordEpisodes the CLIs run post-hoc, so the
// determinism bridge extends to the episode metrics. Like Status, it
// returns at once when ctx ends before its turn comes.
func (s *Session) Metrics(ctx context.Context) (*obs.Metrics, error) {
	return do(ctx, s, func() (*obs.Metrics, error) {
		var snap *obs.Metrics
		switch {
		case s.sys != nil:
			snap = s.col.MetricsSnapshot()
			s.sys.ExportMetrics(snap)
		default:
			snap = s.clu.MetricsSnapshot()
		}
		obs.RecordEpisodes(snap, s.tracker.Episodes())
		return snap, nil
	})
}

// Episodes returns the recovery episodes reconstructed so far,
// in-flight ones included. Like EventsSince it reads the live tracker
// directly — no command, safe mid-run.
func (s *Session) Episodes() []obs.Episode { return s.tracker.Episodes() }

// BlockTelemetry returns the superblock-engine counters mirrored at
// the last Run command, and whether this is a machine session. Reads
// the atomic mirrors directly — no command, safe mid-run.
func (s *Session) BlockTelemetry() (blocks, instrs, bails uint64, ok bool) {
	return s.blocks.Load(), s.blockInstrs.Load(), s.blockBails.Load(), s.sys != nil
}

// EventsSince returns the retained event stream from the given cursor.
// It reads the concurrent-safe collector directly — no command, so it
// works even mid-run and does not affect idle accounting.
func (s *Session) EventsSince(cursor int) []obs.Event {
	return s.col.EventsSince(cursor)
}

// EventCount returns the number of retained events.
func (s *Session) EventCount() int { return s.col.Len() }

// Subscribe attaches a live reader and returns its wake channel (see
// Router.Subscribe).
func (s *Session) Subscribe() <-chan struct{} { return s.router.Subscribe() }

// Unsubscribe detaches a live reader.
func (s *Session) Unsubscribe(wake <-chan struct{}) { s.router.Unsubscribe(wake) }
