package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ssos/internal/obs"
)

// Server is the HTTP face of a Registry. Routes:
//
//	GET    /healthz                   registry health snapshot
//	GET    /api/images                named guest image catalog
//	GET    /api/faults                injectable machine fault classes
//	POST   /api/sessions              create a session (SessionSpec body)
//	GET    /api/sessions              list sessions (registry view)
//	GET    /api/sessions/{id}         session status
//	POST   /api/sessions/{id}/run     advance ({"steps":N} or {"epochs":N})
//	POST   /api/sessions/{id}/fault   inject ({"kind":"os-blast"[,"replica":i]})
//	GET    /api/sessions/{id}/metrics stabilization metrics (JSON)
//	GET    /api/sessions/{id}/events  retained event stream (JSONL; ?since=N)
//	GET    /api/sessions/{id}/episodes reconstructed recovery episodes (JSON)
//	GET    /api/sessions/{id}/stream  live event stream (SSE; ?since=N replays)
//	DELETE /api/sessions/{id}         close and remove the session
//	GET    /metrics                   Prometheus text exposition (scrape)
//
// The events endpoint's body is byte-identical to the batch CLIs'
// -events-out file for the same image/seed/command sequence — that is
// the service's core contract, enforced by the bridge tests and the CI
// smoke job.
type Server struct {
	Reg *Registry
	mux *http.ServeMux
}

// NewServer wires the routes onto a fresh mux.
func NewServer(reg *Registry) *Server {
	s := &Server{Reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/images", s.handleImages)
	s.mux.HandleFunc("GET /api/faults", s.handleFaults)
	s.mux.HandleFunc("POST /api/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /api/sessions", s.handleList)
	s.mux.HandleFunc("GET /api/sessions/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /api/sessions/{id}/run", s.handleRun)
	s.mux.HandleFunc("POST /api/sessions/{id}/fault", s.handleFault)
	s.mux.HandleFunc("GET /api/sessions/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/sessions/{id}/episodes", s.handleEpisodes)
	s.mux.HandleFunc("GET /api/sessions/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /api/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders one response document.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write; nothing to do
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// fail maps service errors onto HTTP statuses.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrFull):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrEvicted), errors.Is(err, ErrClosed):
		status = http.StatusGone
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Reg.Stats())
}

// imageInfo is one /api/images entry.
type imageInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

func (s *Server) handleImages(w http.ResponseWriter, r *http.Request) {
	out := make([]imageInfo, 0, len(images))
	for _, img := range Images() {
		out = append(out, imageInfo{Name: img.Name, Desc: img.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FaultKinds())
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sp SessionSpec
	if err := decodeBody(w, r, &sp); err != nil {
		fail(w, err)
		return
	}
	sess, err := s.Reg.Create(sp)
	if err != nil {
		fail(w, err)
		return
	}
	st, err := sess.Status(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// listEntry is the registry-level session view: no live machine state,
// so listing never waits behind a running simulation.
type listEntry struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Image       string `json:"image"`
	Seed        int64  `json:"seed"`
	Events      int    `json:"events"`
	CreatedOp   uint64 `json:"created_op"`
	LastTouchOp uint64 `json:"last_touch_op"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.Reg.List()
	out := make([]listEntry, 0, len(sessions))
	for _, sess := range sessions {
		created, touched := s.Reg.stamps(sess)
		out = append(out, listEntry{
			ID:          sess.ID,
			Kind:        sess.Spec.Kind,
			Image:       sess.Spec.Image,
			Seed:        sess.Spec.Seed,
			Events:      sess.EventCount(),
			CreatedOp:   created,
			LastTouchOp: touched,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// session resolves the {id} path parameter.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.Reg.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no session %q", id)})
		return nil, false
	}
	return sess, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	st, err := sess.Status(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	s.Reg.Touch(sess)
	st, err := sess.Run(r.Context(), req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req FaultRequest
	if err := decodeBody(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	s.Reg.Touch(sess)
	res, err := sess.Inject(r.Context(), req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	m, err := sess.Metrics(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	m.WriteJSON(w) //nolint:errcheck // client gone mid-write
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	obs.WriteJSONL(w, sess.EventsSince(since)) //nolint:errcheck // client gone mid-write
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Reg.Delete(id) {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no session %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleStream serves the live SSE feed. The reader is a cursor into
// the session's event log: it subscribes first, then on every wake
// writes everything the log holds past its cursor, starting from
// ?since=. So the client sees every event exactly once and in order,
// however slowly it reads, and the stream ends, with the log written
// out, when the session is deleted or evicted.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		fail(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported"})
		return
	}
	wake := sess.Subscribe()
	defer sess.Unsubscribe(wake)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var buf []byte
	next := since
	for open := true; ; {
		for _, e := range sess.EventsSince(next) {
			buf = AppendSSE(buf[:0], Frame{Seq: uint64(next), Ev: e})
			if _, err := w.Write(buf); err != nil {
				return
			}
			next++
		}
		flusher.Flush()
		if !open {
			return // session deleted/evicted and its log written out
		}
		select {
		case _, open = <-wake:
		case <-r.Context().Done():
			return // client went away
		}
	}
}

// maxBodyBytes caps a request body. Every request document is a few
// small fields, so 1 MiB is generous; a larger body is refused with 413
// before it can cost more than that much memory.
const maxBodyBytes = 1 << 20

// decodeBody parses an optional JSON body (empty bodies decode to the
// zero request, so `curl -X POST` without -d works for defaults). The
// rest of the body is drained through the same cap, so any body over
// maxBodyBytes is refused whatever its first document holds.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("request body: %w", err)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// sinceParam parses the ?since= cursor.
func sinceParam(r *http.Request) (int, error) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad since cursor %q", q)
	}
	return n, nil
}
