// Command bench is the repository's benchmark: five workloads that
// between them drive the step engine, the voting fleet, the served
// daemon and the prover, each measured end to end (untraced) and layer
// by layer (traced, from spans around the calls into each package).
//
// Run one workload:
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Compare two sets of runs with
// --compare, summarize sets with --summarize; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/isa"
	"ssos/internal/pool"
	"ssos/internal/serve"
)

// parallelism is the host parallelism every run uses: GOMAXPROCS, the
// shared pool's workers and the serve worker set.
const parallelism = 2

// setups is how many set-ups one run times for setup_s.
const setups = 15

var workloads = []*workload{steadyWorkload, churnWorkload, fleetWorkload, serveWorkload, certifyWorkload}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func main() {
	os.Exit(mainErr(os.Args[1:]))
}

func mainErr(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady|churn|fleet|serve|certify")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase, after set-up")
	traceOn := fs.Int("trace", 0, "1: record spans and print per-layer metrics; 0: print end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans here as Chrome trace_event JSON")
	out := fs.String("out", "", "append this run's record (workload, seed, digest, result) as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two record files: --compare parent.jsonl change.jsonl")
	summarize := fs.Bool("summarize", false, "summarize record files, one set of runs each, as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare takes two record files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *summarize:
		if err := summarizeFiles(os.Stdout, fs.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload %s, --trace 0|1, --seconds >= 0\n", workloadNames())
		return 2
	}
	r := newRun(w, *seed, size{budget: time.Duration(*seconds * float64(time.Second)), setups: setups}, *traceOn == 1)
	res, err := r.measure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *traceOut != "" && r.tr != nil {
		if err := r.tr.writeChrome(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *traceOn,
			Seconds: *seconds, SimDigest: r.simDigest(), result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	r.report(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// newRun prepares one run of w.
func newRun(w *workload, seed int64, sz size, traced bool) *run {
	r := &run{w: w, seed: seed, size: sz, extra: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// measure sets the process up for a run and executes it.
func (r *run) measure() (result, error) {
	runtime.GOMAXPROCS(parallelism)
	pool.Workers = parallelism
	// core assembles its guest programs once per process, on first use;
	// do that before the timed set-ups, which assemble their own images
	// explicitly, so all of them measure the same work.
	if _, err := core.New(core.Config{}); err != nil {
		return result{}, err
	}
	if err := r.execute(); err != nil {
		return result{}, err
	}
	return r.result(), nil
}

// record is one run as --out stores it: what the comparator and the
// summarizer read.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     int     `json:"trace"`
	Seconds   float64 `json:"seconds"`
	SimDigest string  `json:"sim_digest"`
	result
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// assemble runs a workload's guest builders as one timed call: the
// assembly a fresh process pays before it can construct anything.
func assemble(t *track, builds ...func() error) error {
	var errs []error
	t.do("guest", "Build", 0, func() {
		for _, b := range builds {
			errs = append(errs, b())
		}
	})
	return errors.Join(errs...)
}

// imageConfig resolves a serve catalog image name to its core
// configuration, so every workload names systems as clients do.
func imageConfig(name string) (core.Config, error) {
	img, ok := serve.LookupImage(name)
	if !ok {
		return core.Config{}, fmt.Errorf("no image %q", name)
	}
	return img.Cfg, nil
}

// newSystem constructs a system as one timed call.
func newSystem(t *track, cfg core.Config) (*core.System, error) {
	var sys *core.System
	var err error
	t.do("core", "New", 0, func() { sys, err = core.New(cfg) })
	return sys, err
}

// probeDecode measures isa.Decode over every shipped ROM image, in a
// traced run only: a linear sweep from each image's start, skipping a
// byte where nothing decodes. The median sweep of several gives
// isa.decode_ns.
func probeDecode(r *run) {
	imgs, err := guest.LintImages()
	if err != nil {
		r.tally(false, "decode probe: %v", err)
		return
	}
	var perDecode []float64
	for k := 0; k < 9; k++ {
		n := 0
		start := time.Now()
		for _, img := range imgs {
			for off := 0; off < len(img.Bytes); n++ {
				if _, size, ok := isa.Decode(img.Bytes[off:]); ok {
					off += size
				} else {
					off++
				}
			}
		}
		perDecode = append(perDecode, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	r.setExtra("isa.decode_ns", median(perDecode))
}

// writeJSON writes v as indented JSON to w.
func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
