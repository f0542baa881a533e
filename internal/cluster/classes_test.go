package cluster_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/obs"
	"ssos/internal/serve"
)

// goldenClasses is the checked-in record of what every fault class
// writes, on every path that injects one: each served class on each
// catalog image, each cluster strike mode on a replica, each ring-fleet
// layer on every fleet replica, and the ordered class pairs the
// experiments and examples inject. A case pins the rendered injector
// log and a CRC of the CPU and of all memory after the injection, so a
// class that targets other bytes, draws in another order or carries
// another region name fails it. Regenerate it with -update only when a
// class's definition changes on purpose.
const goldenClasses = "testdata/classes.golden.gz"

// classRun is one recorded injection.
type classRun struct {
	Name  string   `json:"name"`
	Log   []string `json:"log"`
	CRC   string   `json:"crc"`
	JSONL string   `json:"jsonl,omitempty"`
}

// classSteps is how long a machine runs before it is struck, and
// classSeed seeds every injector of the golden.
const (
	classSteps = 40000
	classSeed  = 3
)

// classOrders are the ordered class sequences injected outside the
// served one-class requests, each named for the images it is run on.
var classOrders = []struct {
	kinds  []string
	images []string
}{
	// E2, E7, E10 and tinysched: RAM first, then the CPU.
	{[]string{"all-ram", "cpu-blast"}, []string{"reinstall", "scheduler", "scheduler-mbox-kstate"}},
	// The cluster's and the fleet's blast: the CPU first, then RAM.
	{[]string{"cpu-blast", "all-ram"}, []string{"reinstall", "scheduler-mbox-kstate"}},
	// The fleet's os layer, on one machine.
	{[]string{"table-blast", "cpu-blast"}, []string{"scheduler-mbox-kstate"}},
	// E10's tokens + process table.
	{[]string{"table-blast", "mailbox"}, []string{"scheduler-mbox-kstate"}},
	// The layeredring example's joint fault.
	{[]string{"mailbox", "cpu-blast"}, []string{"scheduler-mbox-kstate"}},
}

// machineCRC is a CRC over the CPU's soft state and the whole address
// space.
func machineCRC(s *core.System) string {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%+v", s.M.CPU)
	h.Write(s.M.Bus.Snapshot())
	return fmt.Sprintf("%08x", h.Sum32())
}

func render(log []fault.Record) []string {
	out := make([]string, len(log))
	for i, r := range log {
		out[i] = r.String()
	}
	return out
}

// strikeImage boots an image, runs it classSteps and injects kinds
// through the served injection path.
func strikeImage(t *testing.T, name string, kinds []string) classRun {
	t.Helper()
	img, ok := serve.LookupImage(name)
	if !ok {
		t.Fatalf("no image %q", name)
	}
	s := core.MustNew(img.Cfg)
	s.Run(classSteps)
	inj := fault.NewInjector(s.M, classSeed)
	for _, k := range kinds {
		if err := serve.InjectFault(s, inj, k); err != nil {
			t.Fatal(err)
		}
	}
	return classRun{Name: name + "/" + strings.Join(kinds, "+"), Log: render(inj.Log), CRC: machineCRC(s)}
}

// runClassCases runs every case of the class golden.
func runClassCases(t *testing.T) []classRun {
	t.Helper()
	var runs []classRun
	for _, img := range serve.Images() {
		for _, k := range serve.FaultKinds() {
			runs = append(runs, strikeImage(t, img.Name, []string{k}))
		}
	}
	for _, o := range classOrders {
		for _, name := range o.images {
			runs = append(runs, strikeImage(t, name, o.kinds))
		}
	}

	for _, m := range []cluster.FaultMode{cluster.ModeBitflip, cluster.ModeOSBlast, cluster.ModeCPUBlast, cluster.ModeBlast} {
		c := cluster.MustNew(cluster.Config{Replicas: 3, Approach: core.ApproachReinstall, Seed: classSeed})
		c.Run(1)
		if err := c.Strike(1, m); err != nil {
			t.Fatal(err)
		}
		sys, inj := cluster.ReplicaState(c, 1)
		runs = append(runs, classRun{Name: "strike/" + m.String(), Log: render(inj.Log), CRC: machineCRC(sys)})
	}

	for _, m := range cluster.RingScrambles() {
		col := obs.NewCollector()
		f := cluster.MustNewRingFleet(cluster.RingFleetConfig{
			Variant: guest.VariantDijkstra3, Replicas: 5, Seed: classSeed, Collector: col,
		})
		f.Run(classSteps)
		f.Scramble(m)
		var b bytes.Buffer
		if err := col.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.Nodes(); i++ {
			run := classRun{
				Name: fmt.Sprintf("fleet/%v/%d", m, i),
				Log:  render(cluster.FleetInjector(f, i).Log),
				CRC:  machineCRC(f.Replica(i)),
			}
			if i == 0 {
				run.JSONL = b.String()
			}
			runs = append(runs, run)
		}
	}
	return runs
}

// TestClassesGolden re-runs every injection and compares it with the
// recorded one.
func TestClassesGolden(t *testing.T) {
	got := runClassCases(t)
	if cluster.Update() {
		cluster.WriteGolden(t, goldenClasses, got)
		return
	}
	var want []classRun
	cluster.ReadGolden(t, goldenClasses, &want)
	if len(got) != len(want) {
		t.Fatalf("%d class cases, golden %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %s, golden %s", i, g.Name, w.Name)
		}
		if strings.Join(g.Log, "\n") != strings.Join(w.Log, "\n") {
			t.Errorf("%s: injector log differs:\n got  %q\n want %q", w.Name, g.Log, w.Log)
		}
		if g.CRC != w.CRC {
			t.Errorf("%s: machine CRC %s, golden %s", w.Name, g.CRC, w.CRC)
		}
		if g.JSONL != w.JSONL {
			t.Errorf("%s: event stream differs:\n got  %s\n want %s", w.Name, g.JSONL, w.JSONL)
		}
	}
}
