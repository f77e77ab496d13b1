package runahead

import "repro/internal/uarch"

// ExtractChain performs the runahead buffer's backward dataflow walk
// (Hashemi et al., reproduced here as the RA-buffer baseline): starting
// from the youngest µop in window whose PC equals stallPC, it walks older
// µops collecting the producers of every needed source register; loads in
// the chain additionally check the store queue (a one-cycle CAM match on
// the address) and pull a forwarding store — and its producers — into the
// chain.
//
// window must be in program order (oldest first). The returned chain is in
// program order and has at most maxLen µops; it is empty if stallPC does
// not appear in the window. Loads in the returned chain terminate register
// backtracking (their data comes from memory).
func ExtractChain(window []uarch.Uop, stallPC uint64, maxLen int) []uarch.Uop {
	chain, _ := ExtractChainCost(window, stallPC, maxLen)
	return chain
}

// ExtractChainCost is ExtractChain plus the hardware cost of the walk: the
// number of ROB entries the scan visits. The walk proceeds at one entry
// per cycle (the "expensive CAM lookups in the ROB" of Section 3.6), so
// the cost is the cycle count before replay can start. The walk stops as
// soon as every register dependence is resolved — either by finding the
// producer or by recognizing a looped instance of a µop already in the
// chain.
func ExtractChainCost(window []uarch.Uop, stallPC uint64, maxLen int) ([]uarch.Uop, int) {
	var x ChainExtractor
	return x.Extract(window, stallPC, maxLen)
}

// ChainExtractor runs the backward dataflow walk with reusable scratch
// state, so a long simulation extracts one chain per runahead entry
// without allocating. The zero value is ready to use; Extract's returned
// chain aliases internal storage and is valid until the next Extract call.
type ChainExtractor struct {
	needReg  [uarch.RegLimit]bool
	needList []uarch.Reg // registers currently set in needReg
	forced   []bool      // per-window-index: store must join the chain
	picked   []int
	pickedPC map[uint64]struct{}
	chain    []uarch.Uop
}

// Extract is ExtractChainCost over the extractor's reusable buffers.
func (x *ChainExtractor) Extract(window []uarch.Uop, stallPC uint64, maxLen int) ([]uarch.Uop, int) {
	// Find the youngest instance of the stalling load, scanning from the
	// tail as the hardware does.
	start := -1
	visited := 0
	for i := len(window) - 1; i >= 0; i-- {
		visited++
		if window[i].PC == stallPC {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, visited
	}

	// Reset scratch state from the previous extraction.
	for _, r := range x.needList {
		x.needReg[r] = false
	}
	x.needList = x.needList[:0]
	if cap(x.forced) < len(window) {
		x.forced = make([]bool, len(window))
	}
	x.forced = x.forced[:len(window)]
	for i := range x.forced {
		x.forced[i] = false
	}
	x.picked = x.picked[:0]
	if x.pickedPC == nil {
		x.pickedPC = make(map[uint64]struct{})
	} else {
		clear(x.pickedPC)
	}

	needCount := 0
	need := func(r uarch.Reg) {
		if r != uarch.RegNone && !x.needReg[r] {
			x.needReg[r] = true
			x.needList = append(x.needList, r)
			needCount++
		}
	}
	add := func(u *uarch.Uop) {
		need(u.Src1)
		need(u.Src2)
	}

	// Store-queue CAM: for a chain load, the youngest older store with a
	// byte-overlapping range forwards to it; include such stores (and
	// their producers) in the chain. The lookup itself is a parallel CAM
	// match, not part of the linear walk cost.
	forwardingStore := func(loadIdx int) int {
		l := &window[loadIdx]
		for j := loadIdx - 1; j >= 0; j-- {
			s := &window[j]
			if s.IsStore() && l.Addr < s.Addr+uint64(s.Size) && s.Addr < l.Addr+uint64(l.Size) {
				return j
			}
		}
		return -1
	}

	pendingStores := 0
	onLoadPicked := func(idx int) {
		if j := forwardingStore(idx); j >= 0 && !x.forced[j] {
			x.forced[j] = true
			pendingStores++
		}
	}

	x.picked = append(x.picked, start)
	x.pickedPC[stallPC] = struct{}{}
	add(&window[start])
	onLoadPicked(start)

	for i := start - 1; i >= 0 && len(x.picked) < maxLen; i-- {
		if needCount == 0 && pendingStores == 0 {
			break // every dependence resolved; the hardware walk stops here
		}
		visited++
		u := &window[i]
		take := false
		if u.HasDst() && x.needReg[u.Dst] {
			take = true
			x.needReg[u.Dst] = false
			needCount--
		}
		if x.forced[i] {
			take = true
			pendingStores--
		}
		if !take {
			continue
		}
		if _, dup := x.pickedPC[u.PC]; dup {
			// An older dynamic instance of a µop already in the chain
			// (e.g. the i += 1 recurrence): the buffered chain holds one
			// static copy and replays it in a loop, so the dependence is
			// satisfied without storing the instance again.
			continue
		}
		x.pickedPC[u.PC] = struct{}{}
		x.picked = append(x.picked, i)
		add(u)
		if u.IsLoad() {
			// Register backtracking stops at loads; memory dependences
			// continue through the store queue.
			onLoadPicked(i)
		}
	}

	// Reverse into program order into the reusable chain buffer.
	x.chain = x.chain[:0]
	for i := len(x.picked) - 1; i >= 0; i-- {
		x.chain = append(x.chain, window[x.picked[i]])
	}
	return x.chain, visited
}
