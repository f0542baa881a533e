// Command ssos-asm assembles NASM-flavoured source for the simulated
// machine into a flat binary, optionally printing a listing or a
// disassembly.
//
// Usage:
//
//	ssos-asm [-o out.bin] [-l] [-d] source.asm
//	ssos-asm -guest NAME        (dump a built-in guest's listing)
//
// With no -o the binary is written next to the source with a .bin
// extension. -l prints the assembly listing; -d prints a disassembly of
// the produced image. -guest prints the assembled listing of one of the
// repository's built-in guest programs — the executable form of the
// paper's figures: reinstall (Figure 1), continue, monitor, checkpoint,
// scheduler (Figures 2-5), scheduler-protect, kernel, kernel-padded,
// primitive, proc0..proc3.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssos/internal/asm"
	"ssos/internal/guest"
	"ssos/internal/isa"
)

func main() {
	out := flag.String("o", "", "output binary path (default: source with .bin)")
	listing := flag.Bool("l", false, "print the assembly listing")
	disasm := flag.Bool("d", false, "print a disassembly of the output")
	guestName := flag.String("guest", "", "dump the listing of a built-in guest program")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssos-asm [-o out.bin] [-l] [-d] source.asm | -guest NAME\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *guestName != "" {
		if err := dumpGuest(*guestName); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src := flag.Arg(0)
	data, err := os.ReadFile(src)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(data))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", src, err))
	}
	target := *out
	if target == "" {
		target = strings.TrimSuffix(src, ".asm") + ".bin"
	}
	if err := os.WriteFile(target, prog.Code, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes at origin %#x -> %s\n", src, len(prog.Code), prog.Origin, target)
	if *listing {
		fmt.Print(prog.ListingString())
	}
	if *disasm {
		fmt.Print(isa.DisasmString(prog.Code))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssos-asm:", err)
	os.Exit(1)
}

// dumpGuest prints the assembled listing of a built-in guest program.
func dumpGuest(name string) error {
	prog, err := guestProgram(name)
	if err != nil {
		return err
	}
	fmt.Printf("; built-in guest %q: %d bytes at origin %#x\n", name, len(prog.Code), prog.Origin)
	fmt.Print(prog.ListingString())
	return nil
}

func guestProgram(name string) (*asm.Program, error) {
	switch strings.ToLower(name) {
	case "reinstall":
		h, err := guest.BuildReinstallHandler()
		return handlerProg(h, err)
	case "continue":
		h, err := guest.BuildContinueHandler()
		return handlerProg(h, err)
	case "monitor":
		h, err := guest.BuildMonitorHandler(guest.MustBuildKernel(true))
		return handlerProg(h, err)
	case "checkpoint":
		h, err := guest.BuildCheckpointHandler()
		return handlerProg(h, err)
	case "scheduler":
		s, err := guest.BuildScheduler(false)
		if err != nil {
			return nil, err
		}
		return s.Prog, nil
	case "scheduler-protect":
		s, err := guest.BuildSchedulerOpts(guest.SchedOptions{ValidateDS: true, Protect: true})
		if err != nil {
			return nil, err
		}
		return s.Prog, nil
	case "kernel":
		return guest.MustBuildKernel(false).Prog, nil
	case "kernel-padded":
		return guest.MustBuildKernel(true).Prog, nil
	case "primitive":
		p, err := guest.BuildPrimitive()
		if err != nil {
			return nil, err
		}
		return p.Prog, nil
	}
	if strings.HasPrefix(name, "proc") {
		set, err := guest.BuildProcesses()
		if err != nil {
			return nil, err
		}
		var i int
		if _, err := fmt.Sscanf(name[4:], "%d", &i); err != nil || i < 0 || i >= guest.NumProcs {
			return nil, fmt.Errorf("unknown guest %q", name)
		}
		return set.Progs[i], nil
	}
	return nil, fmt.Errorf("unknown guest %q (try reinstall, monitor, scheduler, kernel, primitive, proc0..proc3)", name)
}

func handlerProg(h *guest.Handler, err error) (*asm.Program, error) {
	if err != nil {
		return nil, err
	}
	return h.Prog, nil
}
