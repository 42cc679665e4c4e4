// Command dyncc compiles a MiniC source file and dumps the requested
// compilation artifacts: the IR (with region/template/set-up structure),
// the generated VM assembly, and each dynamic region's templates, holes and
// stitcher directives.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dyncc/internal/core"
	"dyncc/internal/ir"
)

// passList collects -disable-pass values (repeatable, comma-separated).
type passList []string

func (l *passList) String() string { return strings.Join(*l, ",") }

func (l *passList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*l = append(*l, s)
		}
	}
	return nil
}

func main() {
	dynamic := flag.Bool("dynamic", true, "compile dynamic regions (false = static baseline)")
	optimize := flag.Bool("O", true, "run the static optimizer")
	dumpIR := flag.Bool("ir", false, "dump the compiled IR of every function")
	dumpAsm := flag.Bool("asm", false, "dump the VM assembly of every function")
	dumpTmpl := flag.Bool("templates", true, "dump each region's templates and directives")
	dumpAnalysis := flag.Bool("analysis", false, "dump run-time-constant and reachability results per region")
	fn := flag.String("func", "", "restrict dumps to one function")
	dumpir := flag.String("dumpir", "", "dump IR after the named pipeline pass ('all' = every module-mutating pass)")
	var disable passList
	flag.Var(&disable, "disable-pass", "disable a pipeline pass by name (repeatable, comma-separated; e.g. dce,cse)")
	passTimes := flag.Bool("passtimes", false, "report per-pass compile timings")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dyncc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncc:", err)
		os.Exit(1)
	}
	cfg := core.Config{Dynamic: *dynamic, Optimize: *optimize, DisablePasses: disable}
	if *dumpir != "" {
		cfg.DumpIR = func(pass, f, text string) {
			if *dumpir != "all" && *dumpir != pass {
				return
			}
			if *fn != "" && f != *fn {
				return
			}
			fmt.Printf("=== ir after %s: %s\n%s\n", pass, f, text)
		}
	}
	c, err := core.Compile(string(src), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncc:", err)
		os.Exit(1)
	}
	if *passTimes {
		fmt.Println("=== pass timings")
		for _, st := range c.Stats {
			fmt.Printf("  %-12s %10v  runs %d  changes %d\n",
				st.Pass, st.Duration, st.Runs, st.Changes)
		}
	}

	want := func(f *ir.Func) bool { return *fn == "" || f.Name == *fn }
	for _, f := range c.Module.Funcs {
		if !want(f) {
			continue
		}
		if *dumpIR {
			fmt.Printf("=== IR %s\n%s\n", f.Name, f)
		}
		if *dumpAsm {
			id := c.Output.Prog.FuncID(f.Name)
			fmt.Printf("=== asm %s\n%s\n", f.Name, c.Output.Prog.Segs[id].Disasm())
		}
	}
	if *dumpAnalysis {
		for r, sr := range c.Splits {
			fmt.Printf("=== analysis %s region %d\n", r.Fn.Name, r.ID)
			res := sr.Analysis
			fmt.Printf("run-time constants:")
			for c := res.Const.Next(0); c >= 0; c = res.Const.Next(c + 1) {
				v := ir.Value(c)
				name := r.Fn.ValueInfo(v).Name
				if name == "" {
					fmt.Printf(" v%d", v)
				} else {
					fmt.Printf(" %s(v%d)", name, v)
				}
			}
			fmt.Println()
			for _, b := range r.Fn.Blocks {
				if b.Region != r || b.Setup {
					continue
				}
				mark := ""
				if res.ConstMerge(b) && len(b.Preds) > 1 {
					mark = "  [constant merge]"
				}
				fmt.Printf("  b%d reach %s%s\n", b.ID, res.BlockReach(b), mark)
			}
			fmt.Printf("holes (value -> table slot):")
			for _, h := range sr.Holes {
				fmt.Printf(" v%d->%s", h.V, h.Slot)
			}
			fmt.Println()
		}
	}
	if *dumpTmpl {
		for _, tr := range c.Output.Regions {
			if tr.Blocks == nil {
				continue
			}
			fmt.Printf("=== %s\n%s\n", tr.Name, tr.Dump())
		}
	}
	fmt.Printf("compiled %d functions, %d dynamic regions\n",
		len(c.Module.Funcs), len(c.Output.Regions))
}
