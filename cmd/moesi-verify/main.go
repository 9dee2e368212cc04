// Command moesi-verify runs the exhaustive model checker: every
// reachable state of a small abstract system under every permitted
// action choice, checked against the §3.1 invariants. It verifies the
// class and each protocol, then demonstrates the two documented
// mixed-bus hazards (Write-Once and Firefly against O-capable boards)
// with minimal counterexample traces.
//
// Usage:
//
//	moesi-verify [-boards 3]
//
// Exit status: 1 on a violation or a missed hazard, 2 if -boards is
// outside 1–4.
package main

import (
	"flag"
	"fmt"
	"os"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
	"futurebus/internal/verify"
)

func main() {
	n := flag.Int("boards", 3, "boards per exploration (1-4)")
	flag.Parse()
	exit := 0
	explore := func(boards ...verify.Chooser) verify.Result {
		res, err := verify.Explore(boards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "moesi-verify:", err)
			os.Exit(2)
		}
		return res
	}
	report := func(label string, res verify.Result) {
		fmt.Printf("  %s%s\n", label, res)
		if !res.Ok() {
			exit = 1
		}
	}

	var boards []verify.Chooser
	for i := 0; i < *n; i++ {
		boards = append(boards, verify.ClassChooser{Variant: core.CopyBack})
	}
	res := explore(boards...)
	fmt.Printf("== the full class, %d copy-back boards ==\n", *n)
	report("", res)

	fmt.Println("\n== class + write-through + non-caching ==")
	report("", explore(
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.WriteThrough},
		verify.ClassChooser{Variant: core.NonCaching},
	))

	fmt.Println("\n== each protocol, protocol-pure (3 boards) ==")
	for _, name := range protocols.Names() {
		if name == "random" || name == "round-robin" {
			continue // dynamic choosers range over the whole class (covered above)
		}
		p, err := protocols.New(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			continue
		}
		tc := verify.TableChooser{Table: p.Table()}
		report(fmt.Sprintf("%-24s ", name), explore(tc, tc, tc))
	}

	fmt.Println("\n== the §4 adaptation hazards (expected to be FOUND) ==")
	for _, pair := range [][2]string{{"write-once", "moesi"}, {"firefly", "berkeley"}} {
		a, err := protocols.New(pair[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		b, err := protocols.New(pair[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		res := explore(
			verify.TableChooser{Table: a.Table()},
			verify.TableChooser{Table: b.Table()},
		)
		fmt.Printf("  %s × %s:\n", pair[0], pair[1])
		if res.Ok() {
			fmt.Println("    NO HAZARD FOUND — this should not happen")
			exit = 1
			continue
		}
		fmt.Printf("    hazard confirmed, witness:\n    %s\n", res.Violations[0])
	}
	os.Exit(exit)
}
