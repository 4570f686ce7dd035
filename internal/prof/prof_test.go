package prof

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// parse registers the profiling flags on a fresh flag set and parses
// args into it.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a
// non-empty profile once Stop returns.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	f := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestStopReportsUncreatableMemProfile: a -memprofile path that cannot
// be created makes Stop fail rather than exit quietly without a
// profile.
func TestStopReportsUncreatableMemProfile(t *testing.T) {
	f := parse(t, "-memprofile", filepath.Join(t.TempDir(), "missing", "mem.pprof"))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(); err == nil {
		t.Fatal("Stop accepted a -memprofile path in a missing directory")
	}
}

// TestNoFlagsDoNothing: with neither flag set, Start and Stop succeed,
// open no file and leave the CPU profiler free.
func TestNoFlagsDoNothing(t *testing.T) {
	f := parse(t)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if f.cpuFile != nil {
		t.Error("Start opened a CPU profile with no -cpuprofile")
	}
	// StartCPUProfile fails while another profile runs.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("Start left the CPU profiler running: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}
