package serve

import (
	"net/http"
	"strconv"
	"strings"

	"ssos/internal/obs"
)

// GET /metrics — Prometheus text exposition (format 0.0.4) for scrape-
// based monitoring of a running daemon: registry health, per-session
// event counts, and the recovery-episode statistics the live trackers
// reconstruct (episode counts, in-flight episodes, latency quantiles
// split by fault class and recovery action).
//
// The handler reads only the concurrent-safe side of each session (the
// collector length and the episode tracker) — never a session's turn —
// so a scrape returns immediately even while every session is mid-run,
// and scraping cannot perturb the determinism bridge: it neither ticks
// the registry's logical clock nor touches a simulation.
//
// Each session's episodes are folded by obs.RecordEpisodes, the fold
// that feeds the batch registries, and its quantiles computed with
// obs.Quantile, so a scraped quantile equals the corresponding
// histogram summary in the session's /metrics JSON (and in the batch
// CLIs' -metrics-out) at the same point of the run.

// promQuantiles are the exported summary quantiles, as (label, pct)
// pairs for obs.Quantile.
var promQuantiles = []struct {
	label string
	pct   int
}{
	{"0.5", 50},
	{"0.9", 90},
	{"0.99", 99},
}

// sessionEpStats is the scrape-time digest of one session: its episode
// snapshot folded by obs.RecordEpisodes into a registry of its own, and
// its engine telemetry.
type sessionEpStats struct {
	id     string
	events int
	eps    *obs.Metrics

	// Superblock-engine mirrors (machine sessions only).
	machine                         bool
	blocks, blockInstrs, blockBails uint64
}

// digestSession folds a session's episode snapshot for the scrape.
func digestSession(sess *Session) *sessionEpStats {
	st := &sessionEpStats{id: sess.ID, events: sess.EventCount(), eps: obs.NewMetrics()}
	st.blocks, st.blockInstrs, st.blockBails, st.machine = sess.BlockTelemetry()
	obs.RecordEpisodes(st.eps, sess.Episodes())
	return st
}

// promWriter accumulates one exposition document.
type promWriter struct {
	b []byte
}

// family starts a metric family: HELP + TYPE header.
func (p *promWriter) family(name, help, typ string) {
	p.b = append(p.b, "# HELP "...)
	p.b = append(p.b, name...)
	p.b = append(p.b, ' ')
	p.b = append(p.b, help...)
	p.b = append(p.b, "\n# TYPE "...)
	p.b = append(p.b, name...)
	p.b = append(p.b, ' ')
	p.b = append(p.b, typ...)
	p.b = append(p.b, '\n')
}

// sample emits one sample line. labels must be pre-rendered
// (`key="value",...`) or empty.
func (p *promWriter) sample(name, labels string, value float64) {
	p.b = append(p.b, name...)
	if labels != "" {
		p.b = append(p.b, '{')
		p.b = append(p.b, labels...)
		p.b = append(p.b, '}')
	}
	p.b = append(p.b, ' ')
	p.b = strconv.AppendFloat(p.b, value, 'g', -1, 64)
	p.b = append(p.b, '\n')
}

// summary emits a quantile summary for sorted samples: one sample per
// promQuantile plus _sum and _count, and a separate explicit _max.
func (p *promWriter) summary(name, labels string, sorted []uint64) {
	for _, q := range promQuantiles {
		p.sample(name, labels+`,quantile="`+q.label+`"`, float64(obs.Quantile(sorted, q.pct)))
	}
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(len(sorted)))
	p.sample(name+"_max", labels, float64(sorted[len(sorted)-1]))
}

// promLabel renders one escaped label pair.
func promLabel(key, value string) string {
	return key + "=" + strconv.Quote(value)
}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.Reg.Stats()
	var digests []*sessionEpStats
	for _, sess := range s.Reg.List() { // creation order: deterministic
		digests = append(digests, digestSession(sess))
	}

	p := &promWriter{}
	p.family("ssos_sessions", "Live hosted sessions.", "gauge")
	p.sample("ssos_sessions", "", float64(stats.Sessions))
	p.family("ssos_sessions_created_total", "Sessions created over the daemon lifetime.", "counter")
	p.sample("ssos_sessions_created_total", "", float64(stats.Created))
	p.family("ssos_sessions_evicted_total", "Sessions evicted idle over the daemon lifetime.", "counter")
	p.sample("ssos_sessions_evicted_total", "", float64(stats.Evicted))
	p.family("ssos_registry_ops_total", "Mutating API operations (the registry's logical clock).", "counter")
	p.sample("ssos_registry_ops_total", "", float64(stats.Clock))
	p.family("ssos_workers", "Simulation worker goroutines.", "gauge")
	p.sample("ssos_workers", "", float64(stats.Workers))

	p.family("ssos_session_events_total", "Structured events emitted by the session.", "counter")
	for _, d := range digests {
		p.sample("ssos_session_events_total", promLabel("session", d.id), float64(d.events))
	}
	p.family("ssos_session_blocks_total", "Superblocks entered by the session's machine.", "counter")
	for _, d := range digests {
		if d.machine {
			p.sample("ssos_session_blocks_total", promLabel("session", d.id), float64(d.blocks))
		}
	}
	p.family("ssos_session_block_instrs_total", "Instructions retired through superblock entries.", "counter")
	for _, d := range digests {
		if d.machine {
			p.sample("ssos_session_block_instrs_total", promLabel("session", d.id), float64(d.blockInstrs))
		}
	}
	p.family("ssos_session_block_bails_total", "Superblock validation bails back to the interpreter.", "counter")
	for _, d := range digests {
		if d.machine {
			p.sample("ssos_session_block_bails_total", promLabel("session", d.id), float64(d.blockBails))
		}
	}
	for _, c := range []struct{ family, help, typ, counter string }{
		{"ssos_episodes_total", "Recovery episodes opened (one per injected-fault burst).", "counter", "episodes.total"},
		{"ssos_episodes_resolved_total", "Episodes that confirmed recovery (legality or rejoin).", "counter", "episodes.resolved"},
		{"ssos_episodes_preempted_total", "Episodes cut short by a newer fault on the same scope.", "counter", "episodes.preempted"},
		{"ssos_episodes_in_flight", "Episodes still awaiting resolution.", "gauge", "episodes.in_flight"},
	} {
		p.family(c.family, c.help, c.typ)
		for _, d := range digests {
			p.sample(c.family, promLabel("session", d.id), float64(d.eps.Counter(c.counter)))
		}
	}

	p.family("ssos_episode_latency_steps", "Resolved-episode latency in machine steps.", "summary")
	for _, d := range digests {
		if xs := d.eps.SortedSamples("episode.latency"); len(xs) > 0 {
			p.summary("ssos_episode_latency_steps", promLabel("session", d.id), xs)
		}
	}
	for _, split := range []struct{ family, help, label string }{
		{"ssos_episode_fault_latency_steps", "Resolved-episode latency by fault class.", "fault"},
		{"ssos_episode_action_latency_steps", "Resolved-episode latency by recovery action.", "action"},
	} {
		p.family(split.family, split.help, "summary")
		prefix := "episode.latency." + split.label + "."
		for _, d := range digests {
			for _, name := range d.eps.HistogramNames(prefix) {
				p.summary(split.family,
					promLabel("session", d.id)+","+promLabel(split.label, strings.TrimPrefix(name, prefix)),
					d.eps.SortedSamples(name))
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(p.b) //nolint:errcheck // client gone mid-write
}

// handleEpisodes serves the session's reconstructed recovery episodes
// as JSON. Like /events it reads the live tracker directly, so it works
// mid-run and does not affect idle accounting.
func (s *Server) handleEpisodes(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	eps := sess.Episodes()
	if eps == nil {
		eps = []obs.Episode{}
	}
	writeJSON(w, http.StatusOK, eps)
}
