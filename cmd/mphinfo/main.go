// Command mphinfo validates and describes an MPH registration file
// (processors_map.in). It is the lint step for the runtime input on which
// every MPH job depends: the paper's flexibility ("one can easily insert or
// delete components", §3) is only safe with a checker for the file.
//
// Usage:
//
//	mphinfo [-q] processors_map.in
//
// With -q only the exit status reports validity. Otherwise a summary of
// executables, components, processor ranges, and argument fields is
// printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"mph/internal/registry"
)

func main() {
	quiet := flag.Bool("q", false, "suppress output; report via exit status only")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mphinfo [-q] <registration-file>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	reg, err := registry.ParseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphinfo: %v\n", err)
		os.Exit(1)
	}
	if *quiet {
		return
	}
	describe(os.Stdout, reg)
}

func describe(w io.Writer, reg *registry.Registry) {
	fmt.Fprintf(w, "registration file: %d executable(s), %d component(s)\n\n",
		len(reg.Executables), reg.TotalComponents())

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "EXE\tKIND\tSIZE\tCOMPONENT\tPROCS\tARGS")
	for ei, e := range reg.Executables {
		size := "launcher-defined"
		if s := e.Size(); s >= 0 {
			size = fmt.Sprintf("%d", s)
		}
		for ci, c := range e.Components {
			procs := "-"
			if c.Ranged() {
				procs = fmt.Sprintf("%d..%d", c.Low, c.High)
			}
			args := "-"
			if len(c.Fields) > 0 {
				args = strings.Join(c.Fields, " ")
			}
			exe, kind, sz := "", "", ""
			if ci == 0 {
				exe, kind, sz = fmt.Sprintf("%d", ei), e.Kind.String(), size
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", exe, kind, sz, c.Name, procs, args)
		}
	}
	tw.Flush()

	// Overlap report for multi-component executables.
	for ei, e := range reg.Executables {
		if e.Kind != registry.MultiComponent {
			continue
		}
		for i := 0; i < len(e.Components); i++ {
			for j := i + 1; j < len(e.Components); j++ {
				a, b := e.Components[i], e.Components[j]
				if a.Low <= b.High && b.Low <= a.High {
					fmt.Fprintf(w, "\nnote: executable %d: components %q and %q overlap on processors %d..%d (handshake uses repeated Comm_split)\n",
						ei, a.Name, b.Name, max(a.Low, b.Low), min(a.High, b.High))
				}
			}
		}
	}
}
