// Package workload provides the synthetic proxy kernels that stand in for
// the paper's SPEC CPU2006 memory-intensive SimPoints.
//
// SPEC binaries and traces cannot be shipped, so each benchmark in the
// runahead-buffer paper's memory-intensive set is replaced by a
// deterministic µop generator that reproduces the structural property that
// determines runahead behaviour: how many independent dependence chains
// ("stalling slices") lead to long-latency loads, whether those chains are
// address-computable ahead of the data (streaming/indexed) or data-
// dependent (pointer chasing), the instruction mix, and the branch
// behaviour. The proxies are built from five archetypes:
//
//   - stream:    strided walks over large arrays; slices are {index += k;
//     load A[index]} — short, independent, deeply replayable.
//     Single-stream versions model libquantum, where the
//     runahead buffer's single-slice replay is the best case.
//   - ptrchase:  random permutation walks, load r <- [r]; the next address
//     exists only after the previous load returns. Multiple
//     interleaved chains expose MLP only to mechanisms that can
//     execute several slices at once (mcf).
//   - indirect:  A[col[i]] two-level indirection; the index stream is
//     cache-friendly but the data stream misses (soplex, milc).
//   - stencil:   several offset streams off one index plus a store stream,
//     FP-heavy (lbm, cactusADM, zeusmp, GemsFDTD, leslie3d).
//   - hashwalk:  computed-hash lookups followed by a dependent second
//     load, with data-dependent branches (omnetpp).
//
// Every generator is deterministic given its seed: all runahead modes
// replay the identical dynamic stream, so performance differences come
// only from the microarchitecture.
package workload

import (
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Workload names a proxy kernel and constructs fresh generators for it.
type Workload struct {
	// Name is the report-row label (the SPEC benchmark it proxies).
	Name string
	// Class is the archetype name.
	Class string
	// Chains is the nominal number of independent miss chains per loop.
	Chains int
	// New constructs a fresh deterministic generator.
	New func() trace.Generator
}

// rng is a splitmix64 deterministic generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns true with probability num/den, deterministically.
func (r *rng) below(num, den uint64) bool { return r.next()%den < num }

// emitQ buffers the µops of the current loop iteration.
type emitQ struct {
	q []uarch.Uop
}

func (e *emitQ) push(u uarch.Uop) { e.q = append(e.q, u) }

func (e *emitQ) alu(pc uint64, dst, s1, s2 uarch.Reg) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassIntAlu, Dst: dst, Src1: s1, Src2: s2})
}

// cmp is a flag-setting comparison: integer ALU work with no renamed
// destination. Real integer code is roughly one-third compares, tests and
// stores, which is what keeps the physical register file from being the
// first structure to fill; the proxies reproduce that density.
func (e *emitQ) cmp(pc uint64, s1, s2 uarch.Reg) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassIntAlu, Src1: s1, Src2: s2})
}

func (e *emitQ) fadd(pc uint64, dst, s1, s2 uarch.Reg) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassFPAdd, Dst: dst, Src1: s1, Src2: s2})
}

func (e *emitQ) fmul(pc uint64, dst, s1, s2 uarch.Reg) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassFPMul, Dst: dst, Src1: s1, Src2: s2})
}

func (e *emitQ) load(pc uint64, dst, addrSrc uarch.Reg, addr uint64) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassLoad, Dst: dst, Src1: addrSrc, Addr: addr, Size: 8})
}

func (e *emitQ) store(pc uint64, data, addrSrc uarch.Reg, addr uint64) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassStore, Src1: data, Src2: addrSrc, Addr: addr, Size: 8})
}

func (e *emitQ) branch(pc uint64, src uarch.Reg, taken bool, target uint64) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassBranch, Src1: src, Taken: taken, Target: target})
}

func (e *emitQ) jump(pc, target uint64) {
	e.push(uarch.Uop{PC: pc, Class: uarch.ClassJump, Taken: true, Target: target})
}

// kernelGen adapts an iteration emitter into a trace.Generator.
type kernelGen struct {
	name string
	emit func(*emitQ)
	eq   emitQ
	idx  int
}

func (g *kernelGen) Name() string { return g.name }

func (g *kernelGen) Next(u *uarch.Uop) {
	for g.idx >= len(g.eq.q) {
		g.eq.q = g.eq.q[:0]
		g.idx = 0
		g.emit(&g.eq)
	}
	*u = g.eq.q[g.idx]
	g.idx++
}

// NextBlock implements trace.BlockGenerator: the buffered iteration is
// copied out in bulk instead of one interface call per µop.
func (g *kernelGen) NextBlock(dst []uarch.Uop) {
	for len(dst) > 0 {
		for g.idx >= len(g.eq.q) {
			g.eq.q = g.eq.q[:0]
			g.idx = 0
			g.emit(&g.eq)
		}
		n := copy(dst, g.eq.q[g.idx:])
		g.idx += n
		dst = dst[n:]
	}
}

// pcBase assigns each kernel a disjoint static code region.
func pcBase(kernelID int) uint64 { return 0x400000 + uint64(kernelID)<<16 }

// dataBase assigns array a of kernel k a disjoint address region.
func dataBase(kernelID, array int) uint64 {
	return (uint64(kernelID)+1)<<36 + (uint64(array)+1)<<30
}

// lcgStep advances a full-period power-of-two LCG; lines is a power of two.
func lcgStep(state, lines uint64) uint64 {
	return (state*6364136223846793005 + 1442695040888963407) & (lines - 1)
}
