package main

import (
	"fmt"
	"regexp"
	"strings"
	"time"
)

// The yardstick is a fixed piece of host work: one scan of a generated
// Go source text with a regular expression from Go's standard library.
// No change to this repository changes its cost, so its time measures
// only how fast the host runs at that moment. Other tenants of the
// benchmark host slow the simulator by up to 2x for seconds to minutes
// at a time, and no run is long enough to average that out; the
// yardstick slows with them by about the same factor (the regexp engine,
// like the simulator, is branchy integer code), so host times divided by
// the yardstick's time measure the program rather than the neighbours.
//
// The benchmark times the yardstick on the worker goroutine right after
// every simulated cell, while the other worker is still simulating, and
// before every set-up, and scales host times by yardNominal over the
// yardstick's time across the same stretch of the run (untracedRun says
// which statistic of it).
var (
	yardPattern = regexp.MustCompile(`func \(([a-z]+) \*?([A-Za-z]+)\) ([A-Za-z]+)\(`)
	yardText    = yardCorpus(200)
)

// yardNominal is the yardstick's time on the benchmark host (2 vCPUs,
// "Intel(R) Xeon(R) Processor", Go 1.24) when no neighbour slows it. It
// only sets the scale: a reference second is the time in which the host
// runs the yardstick once per yardNominal, so on a quiet host normalized
// and raw times agree.
const yardNominal = 250 * time.Microsecond

// yardstick times one scan.
//
//sim:wallclock the yardstick is a host measurement printed by the benchmark, never fed into a simulation
func yardstick() time.Duration {
	start := time.Now()
	yardPattern.FindAllIndex(yardText, -1)
	return time.Since(start)
}

// yardCorpus generates funcs Go-like function declarations, half of them
// methods the pattern matches, from a fixed xorshift sequence.
func yardCorpus(funcs int) []byte {
	x := uint64(88172645463325252)
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	words := []string{"core", "rob", "entry", "issue", "wake", "commit", "cache", "line",
		"mshr", "fetch", "uop", "seq", "slot", "stall", "queue"}
	word := func() string { return words[rnd(len(words))] }
	upper := func(s string) string { return strings.ToUpper(s[:1]) + s[1:] }
	id := func() string { return word() + upper(word()) }
	var b strings.Builder
	b.WriteString("package sample\n\n")
	for i := 0; i < funcs; i++ {
		if rnd(2) == 0 {
			fmt.Fprintf(&b, "func (c *%s) %s(%s int) int {\n", upper(id()), upper(id()), id())
		} else {
			fmt.Fprintf(&b, "func %s(%s, %s int) int {\n", id(), id(), id())
		}
		for s := rnd(6) + 2; s > 0; s-- {
			switch rnd(4) {
			case 0:
				fmt.Fprintf(&b, "\tif %s > %d {\n\t\t%s++\n\t}\n", id(), rnd(64), id())
			case 1:
				fmt.Fprintf(&b, "\tfor i := 0; i < %d; i++ {\n\t\t%s += i\n\t}\n", rnd(16), id())
			case 2:
				fmt.Fprintf(&b, "\t%s := %s(%s, %d)\n", id(), id(), id(), rnd(9))
			default:
				fmt.Fprintf(&b, "\t// %s %s %s\n", id(), id(), id())
			}
		}
		fmt.Fprintf(&b, "\treturn %s\n}\n\n", id())
	}
	return []byte(b.String())
}
