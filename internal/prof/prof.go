// Package prof wires the standard -cpuprofile/-memprofile flags into
// the cosmos command-line tools. Profiles are written in runtime/pprof
// format, ready for `go tool pprof`; they exist so the hot paths the
// benchmarks pin (event queue, predictor tables, trace evaluation) can
// be re-measured on real experiment runs, not just microbenchmarks.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the parsed profiling destinations.
type Flags struct {
	cpu *string
	mem *string

	cpuFile *os.File
}

// AddFlags registers -cpuprofile and -memprofile on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	f.mem = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Start begins CPU profiling if requested. Callers must pair it with
// Stop (normally via defer) so the profile is flushed.
func (f *Flags) Start() error {
	if *f.cpu == "" {
		return nil
	}
	file, err := os.Create(*f.cpu)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("prof: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop flushes the CPU profile (if one is running) and writes the heap
// profile (if requested). Safe to call when neither flag was set.
func (f *Flags) Stop() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		f.cpuFile = nil
	}
	if *f.mem == "" {
		return nil
	}
	file, err := os.Create(*f.mem)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	runtime.GC() // materialize the final live set before snapshotting
	err = pprof.WriteHeapProfile(file)
	// A failed close can mean the profile never reached the disk, so
	// it is an error like a failed write.
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}
