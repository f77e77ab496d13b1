package runahead

import (
	"testing"

	"repro/internal/uarch"
)

// ChainExtractor edge cases. runahead_test.go exercises the extractor
// through the one-shot ExtractChain wrapper; these tests pin the
// reusable-state path the core drives (one ChainExtractor per core, one
// Extract per RA-buffer runahead entry).

func TestChainExtractorEmptyWindow(t *testing.T) {
	var x ChainExtractor
	chain, cost := x.Extract(nil, 0x40, 32)
	if chain != nil || cost != 0 {
		t.Errorf("empty window: chain=%v cost=%d, want nil chain at zero cost", chain, cost)
	}
	chain, cost = x.Extract([]uarch.Uop{}, 0x40, 32)
	if chain != nil || cost != 0 {
		t.Errorf("zero-length window: chain=%v cost=%d, want nil chain at zero cost", chain, cost)
	}
}

func TestChainExtractorStallPCAbsent(t *testing.T) {
	r1 := uarch.IntReg(1)
	window := []uarch.Uop{
		mkUop(4, uarch.ClassIntAlu, r1, r1, uarch.RegNone, 0),
		mkUop(8, uarch.ClassLoad, uarch.FPReg(0), r1, uarch.RegNone, 0x1000),
	}
	var x ChainExtractor
	chain, cost := x.Extract(window, 0xdead, 32)
	if chain != nil {
		t.Errorf("absent stall PC: chain=%v, want nil", chain)
	}
	// The hardware scans the whole ROB from the tail before concluding
	// the PC is gone — the cost must reflect that full scan.
	if cost != len(window) {
		t.Errorf("absent stall PC: cost=%d, want full window scan %d", cost, len(window))
	}
}

func TestChainExtractorMaxLenTruncatesMidDependence(t *testing.T) {
	// A strict ALU dependence chain r1 <- r1 feeding the stalling load:
	// every µop is a producer the walk wants, so a maxLen smaller than
	// the chain must cut it mid-dependence. The truncated chain must hit
	// maxLen exactly, stay in program order, and still terminate at the
	// stalling load — the replay machinery relies on all three.
	const deps = 16
	var window []uarch.Uop
	for i := 0; i < deps; i++ {
		window = append(window, mkUop(uint64(4+i*4), uarch.ClassIntAlu,
			uarch.IntReg(1), uarch.IntReg(1), uarch.RegNone, 0))
	}
	window = append(window, mkUop(0x999, uarch.ClassLoad,
		uarch.IntReg(2), uarch.IntReg(1), uarch.RegNone, 0x4000))

	const maxLen = 4
	var x ChainExtractor
	chain, _ := x.Extract(window, 0x999, maxLen)
	if len(chain) != maxLen {
		t.Fatalf("chain length %d, want exactly maxLen %d (dependence unresolved on every older µop)", len(chain), maxLen)
	}
	if chain[len(chain)-1].PC != 0x999 {
		t.Errorf("truncated chain ends at %#x, want the stalling load", chain[len(chain)-1].PC)
	}
	for i := 1; i < len(chain); i++ {
		if chain[i-1].PC > chain[i].PC {
			t.Errorf("truncated chain out of program order at %d: %#x > %#x", i, chain[i-1].PC, chain[i].PC)
		}
	}
}

func TestChainExtractorScratchReuseNoBleed(t *testing.T) {
	r1, r2, r3 := uarch.IntReg(1), uarch.IntReg(2), uarch.IntReg(3)

	// First extraction leaves dangling scratch state on purpose: the
	// stalling load needs r2 and r3, neither produced in the window, so
	// needReg/needList end non-empty; it also forces a store into the
	// chain, leaving a bit set in the forced buffer.
	first := []uarch.Uop{
		mkUop(0x10, uarch.ClassStore, uarch.RegNone, r1, uarch.RegNone, 0x500),
		mkUop(0x14, uarch.ClassLoad, r1, r2, r3, 0x500),
	}
	var x ChainExtractor
	chain, _ := x.Extract(first, 0x14, 32)
	if len(chain) != 2 {
		t.Fatalf("first extraction chain = %d µops, want load + forwarding store", len(chain))
	}

	// Second extraction over a window that contains producers of the
	// stale registers (r2, r3), a store overlapping the stale forced
	// index, and a µop sharing a PC with the first chain. None of those
	// may leak in: the chain is just {producer of r1, load}.
	second := []uarch.Uop{
		mkUop(0x10, uarch.ClassIntAlu, r2, r2, uarch.RegNone, 0), // stale needReg bait + first-chain PC
		mkUop(0x20, uarch.ClassIntAlu, r3, r3, uarch.RegNone, 0), // stale needReg bait
		mkUop(0x24, uarch.ClassIntAlu, r1, uarch.RegNone, uarch.RegNone, 0),
		mkUop(0x28, uarch.ClassLoad, uarch.FPReg(0), r1, uarch.RegNone, 0x9000),
	}
	chain, _ = x.Extract(second, 0x28, 32)
	if len(chain) != 2 {
		t.Fatalf("reused extractor chain = %v, want 2 µops — scratch state bled across Extract calls", chain)
	}
	if chain[0].PC != 0x24 || chain[1].PC != 0x28 {
		t.Errorf("reused extractor chain PCs = %#x,%#x, want 0x24,0x28", chain[0].PC, chain[1].PC)
	}

	// And the result must match a fresh extractor bit for bit.
	fresh, _ := ExtractChainCost(second, 0x28, 32)
	if len(fresh) != len(chain) {
		t.Fatalf("reused extractor disagrees with fresh: %d vs %d µops", len(chain), len(fresh))
	}
	for i := range fresh {
		if chain[i] != fresh[i] {
			t.Errorf("chain[%d] = %+v, fresh extractor got %+v", i, chain[i], fresh[i])
		}
	}
}
