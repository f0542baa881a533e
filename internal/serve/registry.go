package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ssos/internal/pool"
)

// Registry defaults.
const (
	// DefaultMaxSessions caps concurrently hosted sessions. Sized for
	// the stress target (hundreds of live machines) while bounding
	// memory: a machine session's system is about 97 KB when built and
	// grows by each 256-byte page it writes, to about 1 MiB after an
	// all-ram fault (a cluster session holds up to MaxReplicas such
	// machines), so the cap is also, to first order, the daemon's
	// memory budget.
	DefaultMaxSessions = 1024
	// DefaultIdleOps is the idle-eviction horizon in registry
	// operations: a session untouched for this many mutating API
	// operations is evicted. Logical, not temporal — eviction is a
	// pure function of the request sequence.
	DefaultIdleOps = 4096
)

// ErrFull is returned by Create when the registry is at its session
// cap and no session is idle enough to evict.
var ErrFull = errors.New("session table full")

// ErrShutdown is returned for operations on a registry that has been
// shut down.
var ErrShutdown = errors.New("server shutting down")

// Options parameterizes a Registry. The zero value of every field
// selects a default.
type Options struct {
	// MaxSessions caps live sessions (default DefaultMaxSessions).
	MaxSessions int
	// IdleOps is the idle-eviction horizon in mutating operations
	// (default DefaultIdleOps; negative disables eviction).
	IdleOps int
	// Workers sizes the simulation worker set (default pool.Workers,
	// falling back to GOMAXPROCS — the same budget contract the batch
	// CLIs' -workers flag sets).
	Workers int
	// RingSize is the per-subscriber SSE ring capacity (default
	// DefaultRingSize).
	RingSize int
}

// Stats is the registry's own health snapshot.
type Stats struct {
	Sessions int    `json:"sessions"`
	Created  uint64 `json:"created"`
	Evicted  uint64 `json:"evicted"`
	Clock    uint64 `json:"clock"`
	Workers  int    `json:"workers"`
}

// Registry owns every hosted session: creation against the cap,
// lookup, deterministic idle eviction, and the bounded worker set that
// executes all session commands.
//
// Two locks, strictly ordered: mu (session table, logical clock) may
// be taken alone or before a session's internal lock; the run-queue
// lock qmu is leaf-only. Workers never take mu.
type Registry struct {
	opts    Options
	workers int

	mu sync.Mutex
	//ssos:guarded-by mu
	sessions map[string]*Session
	//ssos:guarded-by mu
	order []*Session // live sessions in creation order (eviction scan order)
	//ssos:guarded-by mu
	nextID uint64
	//ssos:guarded-by mu
	clock uint64
	//ssos:guarded-by mu
	created uint64
	//ssos:guarded-by mu
	evicted uint64
	//ssos:guarded-by mu
	closed bool

	qmu   sync.Mutex
	qcond *sync.Cond
	//ssos:guarded-by qmu
	runq []*Session
	//ssos:guarded-by qmu
	stopping bool
	wg       sync.WaitGroup
}

// NewRegistry builds a registry and starts its worker set.
func NewRegistry(o Options) *Registry {
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.IdleOps == 0 {
		o.IdleOps = DefaultIdleOps
	}
	if o.RingSize == 0 {
		o.RingSize = DefaultRingSize
	}
	workers := o.Workers
	if workers <= 0 {
		workers = pool.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Registry{
		opts:     o,
		workers:  workers,
		sessions: make(map[string]*Session),
	}
	r.qcond = sync.NewCond(&r.qmu)
	for w := 0; w < workers; w++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// worker executes session command queues from the run queue until the
// registry stops. Session drains are serialized per session by the
// scheduled flag, so two workers never touch one simulation.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		r.qmu.Lock()
		for len(r.runq) == 0 && !r.stopping {
			r.qcond.Wait()
		}
		if len(r.runq) == 0 {
			r.qmu.Unlock()
			return
		}
		s := r.runq[0]
		r.runq = r.runq[1:]
		r.qmu.Unlock()
		s.drain()
	}
}

// enqueue schedules a session's command queue for a worker.
func (r *Registry) enqueue(s *Session) {
	r.qmu.Lock()
	r.runq = append(r.runq, s)
	r.qmu.Unlock()
	r.qcond.Signal()
}

// Create builds a session from the spec, registers it and returns it.
// The construction (guest assembly, machine boot) happens outside the
// registry lock; insertion ticks the logical clock and may evict idle
// sessions to make room.
func (r *Registry) Create(sp SessionSpec) (*Session, error) {
	if _, err := sp.normalize(); err != nil {
		return nil, err
	}
	// Reserve an ID first so session identity follows creation order
	// even when constructions race.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrShutdown
	}
	r.nextID++
	id := fmt.Sprintf("s%d", r.nextID)
	r.mu.Unlock()

	s, err := newSession(id, sp, r.opts.RingSize)
	if err != nil {
		return nil, err
	}
	s.reg = r

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrShutdown
	}
	r.tick() // may evict idle sessions, freeing room
	if len(r.sessions) >= r.opts.MaxSessions {
		return nil, ErrFull
	}
	s.created = r.clock
	s.lastTouch = r.clock
	r.sessions[s.ID] = s
	r.order = append(r.order, s)
	r.created++
	return s, nil
}

// Get returns the session by ID.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// List returns the live sessions in creation order.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Session(nil), r.order...)
}

// Len returns the live session count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Stats returns the registry health snapshot.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Sessions: len(r.sessions),
		Created:  r.created,
		Evicted:  r.evicted,
		Clock:    r.clock,
		Workers:  r.workers,
	}
}

// stamps returns a session's creation and last-touch clock values.
func (r *Registry) stamps(s *Session) (created, lastTouch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.created, s.lastTouch
}

// Touch records a mutating operation on the session: the logical clock
// ticks, the session's idle age resets, and the idle sweep runs. Every
// state-changing API call (run, fault) passes through here before its
// command executes.
func (r *Registry) Touch(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.tick()
	s.lastTouch = r.clock
}

// Delete closes and removes the session.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		r.removeLocked(s)
		r.tick()
	}
	r.mu.Unlock()
	if ok {
		s.close(ErrClosed)
	}
	return ok
}

// tick advances the logical clock one mutating operation and runs the
// idle sweep. Caller holds mu.
//
//ssos:locked mu
func (r *Registry) tick() {
	r.clock++
	if r.opts.IdleOps < 0 {
		return
	}
	horizon := uint64(r.opts.IdleOps)
	// Scan in creation order so which sessions fall is deterministic
	// for a fixed operation sequence.
	var evict []*Session
	for _, s := range r.order {
		if r.clock-s.lastTouch > horizon {
			evict = append(evict, s)
		}
	}
	for _, s := range evict {
		r.removeLocked(s)
		r.evicted++
		// close flushes the session's queued commands and closes its
		// subscribers; safe under mu (lock order: mu before session
		// locks, never the reverse).
		s.close(ErrEvicted)
	}
}

// removeLocked unlinks a session from the table. slices.Delete zeroes
// the slot vacated at the tail, so the backing array holds no stale
// pointer keeping a deleted session's machines reachable. Caller holds
// mu.
//
//ssos:locked mu
func (r *Registry) removeLocked(s *Session) {
	delete(r.sessions, s.ID)
	if i := slices.Index(r.order, s); i >= 0 {
		r.order = slices.Delete(r.order, i, i+1)
	}
}

// Evicted returns the lifetime eviction count.
func (r *Registry) Evicted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Shutdown closes every session (tearing the fan-out down on the
// context-aware pool) and stops the worker set. In-flight commands
// stop at their next chunk boundary; queued ones fail with ErrShutdown.
// Idempotent.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	sessions := append([]*Session(nil), r.order...)
	r.sessions = make(map[string]*Session)
	r.order = nil
	r.mu.Unlock()

	err := pool.RunCtx(ctx, len(sessions), func(i int) {
		sessions[i].close(ErrShutdown)
	})
	if err != nil {
		// Cancellation cut the parallel teardown short; finish
		// sequentially — close is cheap and must not be skipped, or
		// waiting clients would hang.
		for _, s := range sessions {
			s.close(ErrShutdown)
		}
	}

	r.qmu.Lock()
	r.stopping = true
	r.qmu.Unlock()
	r.qcond.Broadcast()
	r.wg.Wait()
	return err
}
