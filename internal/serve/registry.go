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
	// Workers caps the session commands that run at once (default
	// pool.Workers, falling back to GOMAXPROCS — the same budget
	// contract the batch CLIs' -workers flag sets).
	Workers int
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
// lookup, deterministic idle eviction, and the worker budget every
// session command runs within.
//
// mu (session table, logical clock) may be taken alone or before a
// session's internal lock, never after it.
type Registry struct {
	opts Options
	// slots holds one value per running command; its capacity is the
	// worker budget.
	slots chan struct{}

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
}

// NewRegistry builds a registry.
func NewRegistry(o Options) *Registry {
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.IdleOps == 0 {
		o.IdleOps = DefaultIdleOps
	}
	workers := o.Workers
	if workers <= 0 {
		workers = pool.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Registry{
		opts:     o,
		slots:    make(chan struct{}, workers),
		sessions: make(map[string]*Session),
	}
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

	s, err := newSession(id, sp)
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
		Workers:  cap(r.slots),
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
		// close fails the session's waiting commands and ends its
		// streams; safe under mu (lock order: mu before session locks,
		// never the reverse).
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

// Shutdown closes every session and then takes every worker slot, so
// it returns once no command runs. In-flight commands stop at their
// next chunk boundary; waiting ones fail with ErrShutdown. When ctx
// ends first it returns ctx's error. Idempotent.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	sessions := r.order
	r.sessions = make(map[string]*Session)
	r.order = nil
	r.mu.Unlock()

	for _, s := range sessions {
		s.close(ErrShutdown)
	}
	for range cap(r.slots) {
		select {
		case r.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
