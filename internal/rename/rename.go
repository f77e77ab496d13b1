// Package rename implements register renaming: the speculative and
// committed register alias tables (RAT), the physical register files with
// their free lists, and per-physical-register ready and poison state.
//
// Two pieces are specific to this paper:
//
//   - Each RAT entry additionally records the PC of the instruction that
//     last produced the architectural register (Section 3.2). The SST uses
//     it to walk backwards from a stalling load to its producers, one
//     level per loop iteration.
//
//   - Physical registers allocated during runahead are tagged with a
//     runahead generation, so the PRDQ's in-order reclamation can free a
//     runahead µop's previous mapping only when that mapping itself
//     belongs to the current runahead episode. Pre-runahead mappings stay
//     live because the restored RAT will point at them again at exit.
//
// Poison ("INV") semantics follow runahead execution: a poisoned register
// holds invalid data. Traditional runahead marks poisoned registers ready
// so dependents drain through the pipeline and propagate INV at issue; PRE
// leaves the stalling load's register not-ready (normal-mode consumers in
// the ROB must keep waiting for the real data) and filters INV slice µops
// at rename instead.
package rename

import (
	"fmt"

	"repro/internal/uarch"
)

// PReg names a physical register; 0 means "none".
type PReg uint16

// PRegNone is the absent physical register.
const PRegNone PReg = 0

// Config sizes the physical register files (Table 1: 168 int + 168 fp).
type Config struct {
	IntPRF, FPPRF int
}

// DefaultConfig returns the Haswell-style register files from Table 1.
func DefaultConfig() Config { return Config{IntPRF: 168, FPPRF: 168} }

// Validate checks that the files can at least back every architectural
// register.
func (c *Config) Validate() error {
	if c.IntPRF < uarch.NumIntRegs+1 {
		return fmt.Errorf("rename: %d int physical registers cannot back %d architectural", c.IntPRF, uarch.NumIntRegs)
	}
	if c.FPPRF < uarch.NumFPRegs+1 {
		return fmt.Errorf("rename: %d fp physical registers cannot back %d architectural", c.FPPRF, uarch.NumFPRegs)
	}
	return nil
}

// Out is the result of renaming one µop.
type Out struct {
	// Src1P and Src2P are the physical sources (PRegNone if absent).
	Src1P, Src2P PReg
	// DstP is the newly allocated destination (PRegNone if the µop does
	// not write a register).
	DstP PReg
	// OldDstP is the previous mapping of the destination architectural
	// register; it is freed when this µop commits (or via the PRDQ during
	// runahead).
	OldDstP PReg
}

// Checkpoint captures RAT state (and optionally the free lists) for
// runahead entry/exit.
type Checkpoint struct {
	rat     [uarch.RegLimit]PReg
	ratPC   [uarch.RegLimit]uint64
	intFree []PReg
	fpFree  []PReg
}

// pstate is one physical register's scoreboard entry: data availability,
// the runahead INV mark, and the runahead generation that allocated it
// (0 = normal mode; see the package comment).
type pstate struct {
	ready  bool
	poison bool
	gen    uint32
}

// Stats counts renaming activity for the energy model.
type Stats struct {
	Renamed     int64
	IntAllocs   int64
	FPAllocs    int64
	RenameStall int64 // rename attempts rejected for lack of registers
}

// Renamer is the rename stage state. Not safe for concurrent use.
type Renamer struct {
	cfg Config

	rat       [uarch.RegLimit]PReg
	ratPC     [uarch.RegLimit]uint64
	committed [uarch.RegLimit]PReg

	intFree []PReg
	fpFree  []PReg

	// pregs holds the per-physical-register scoreboard. One packed record
	// per preg keeps the rename/wake/poison probes — several per simulated
	// µop — on a single cache line instead of three parallel arrays.
	pregs  []pstate
	curGen uint32

	// inUseScratch is RestoreFull's per-call workspace (which pregs the
	// checkpoint RAT references), kept here so the per-episode exit path
	// does not allocate.
	inUseScratch []bool

	stats Stats
}

// New builds a renamer with architectural registers mapped to the first
// physical registers of each file and everything else free.
func New(cfg Config) *Renamer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total := 1 + cfg.IntPRF + cfg.FPPRF // preg 0 unused
	r := &Renamer{
		cfg:          cfg,
		pregs:        make([]pstate, total),
		inUseScratch: make([]bool, total),
	}
	// Int pregs: [1, IntPRF]; FP pregs: [IntPRF+1, IntPRF+FPPRF].
	next := PReg(1)
	for i := 0; i < uarch.NumIntRegs; i++ {
		a := uarch.IntReg(i)
		r.rat[a] = next
		r.committed[a] = next
		r.pregs[next].ready = true
		next++
	}
	for p := next; p <= PReg(cfg.IntPRF); p++ {
		r.intFree = append(r.intFree, p)
	}
	next = PReg(cfg.IntPRF + 1)
	for i := 0; i < uarch.NumFPRegs; i++ {
		a := uarch.FPReg(i)
		r.rat[a] = next
		r.committed[a] = next
		r.pregs[next].ready = true
		next++
	}
	for p := next; p <= PReg(cfg.IntPRF+cfg.FPPRF); p++ {
		r.fpFree = append(r.fpFree, p)
	}
	return r
}

// Stats returns a copy of the counters.
func (r *Renamer) Stats() Stats { return r.stats }

// ResetStats zeroes the counters.
func (r *Renamer) ResetStats() { r.stats = Stats{} }

// isIntPReg reports which file a physical register belongs to.
func (r *Renamer) isIntPReg(p PReg) bool { return p >= 1 && int(p) <= r.cfg.IntPRF }

// FreeCounts returns the number of free int and fp physical registers —
// the paper's Section 3.4 headroom measurement.
func (r *Renamer) FreeCounts() (intFree, fpFree int) {
	return len(r.intFree), len(r.fpFree)
}

// Lookup returns the current speculative mapping of an architectural
// register.
func (r *Renamer) Lookup(a uarch.Reg) PReg { return r.rat[a] }

// ProducerPC returns the PC recorded in the RAT extension for the last
// producer of a (Section 3.2), or 0 if none has been recorded.
func (r *Renamer) ProducerPC(a uarch.Reg) uint64 { return r.ratPC[a] }

// CanRename reports whether a µop writing to class-int / class-fp could
// allocate right now.
func (r *Renamer) CanRename(dst uarch.Reg) bool {
	switch {
	case dst == uarch.RegNone:
		return true
	case dst.IsInt():
		return len(r.intFree) > 0
	default:
		return len(r.fpFree) > 0
	}
}

// Rename maps u's sources and allocates a destination register.
// inRunahead tags the allocation with the current runahead generation.
// ok=false means the needed free list is empty; the stage must stall.
func (r *Renamer) Rename(u *uarch.Uop, inRunahead bool) (Out, bool) {
	var out Out
	if u.Src1 != uarch.RegNone {
		out.Src1P = r.rat[u.Src1]
	}
	if u.Src2 != uarch.RegNone {
		out.Src2P = r.rat[u.Src2]
	}
	if u.Dst != uarch.RegNone {
		var p PReg
		if u.Dst.IsInt() {
			if len(r.intFree) == 0 {
				r.stats.RenameStall++
				return Out{}, false
			}
			p = r.intFree[len(r.intFree)-1]
			r.intFree = r.intFree[:len(r.intFree)-1]
			r.stats.IntAllocs++
		} else {
			if len(r.fpFree) == 0 {
				r.stats.RenameStall++
				return Out{}, false
			}
			p = r.fpFree[len(r.fpFree)-1]
			r.fpFree = r.fpFree[:len(r.fpFree)-1]
			r.stats.FPAllocs++
		}
		out.OldDstP = r.rat[u.Dst]
		out.DstP = p
		r.rat[u.Dst] = p
		r.ratPC[u.Dst] = u.PC
		gen := uint32(0)
		if inRunahead {
			gen = r.curGen
		}
		r.pregs[p] = pstate{gen: gen}
	}
	r.stats.Renamed++
	return out, true
}

// Free returns p to its free list.
func (r *Renamer) Free(p PReg) {
	if p == PRegNone {
		return
	}
	if r.isIntPReg(p) {
		r.intFree = append(r.intFree, p)
	} else {
		r.fpFree = append(r.fpFree, p)
	}
}

// Commit retires a µop that wrote dstP to architectural register dst:
// the committed RAT advances and the previous committed mapping is freed.
func (r *Renamer) Commit(dst uarch.Reg, dstP PReg) {
	if dst == uarch.RegNone {
		return
	}
	old := r.committed[dst]
	r.committed[dst] = dstP
	r.Free(old)
}

// --- ready / poison state ---------------------------------------------

// MarkReady marks p's data available, waking IQ consumers.
func (r *Renamer) MarkReady(p PReg) {
	if p != PRegNone {
		r.pregs[p].ready = true
	}
}

// IsReady reports whether p's data is available (sources with PRegNone
// are trivially ready).
func (r *Renamer) IsReady(p PReg) bool { return p == PRegNone || r.pregs[p].ready }

// MarkPoisoned flags p as INV. makeReady additionally publishes the
// (invalid) data so dependents drain through the pipeline — traditional
// runahead semantics; PRE leaves the stalling load not-ready instead.
func (r *Renamer) MarkPoisoned(p PReg, makeReady bool) {
	if p == PRegNone {
		return
	}
	r.pregs[p].poison = true
	if makeReady {
		r.pregs[p].ready = true
	}
}

// IsPoisoned reports whether p holds INV data.
func (r *Renamer) IsPoisoned(p PReg) bool { return p != PRegNone && r.pregs[p].poison }

// ClearPoison removes the INV mark (stalling load's data arrived).
func (r *Renamer) ClearPoison(p PReg) {
	if p != PRegNone {
		r.pregs[p].poison = false
	}
}

// --- runahead generation ------------------------------------------------

// BeginRunahead opens a new runahead generation; subsequent Rename calls
// with inRunahead=true tag their allocations with it.
func (r *Renamer) BeginRunahead() { r.curGen++ }

// IsRunaheadAlloc reports whether p was allocated during the current
// runahead generation — the PRDQ may recycle only such registers.
func (r *Renamer) IsRunaheadAlloc(p PReg) bool {
	return p != PRegNone && r.pregs[p].gen == r.curGen && r.curGen != 0
}

// --- checkpoints --------------------------------------------------------

// CheckpointSpec snapshots the speculative RAT, its PC extension and the
// free lists — PRE's entry checkpoint (Section 3.1).
func (r *Renamer) CheckpointSpec() *Checkpoint {
	cp := &Checkpoint{}
	r.CheckpointSpecInto(cp)
	return cp
}

// CheckpointSpecInto writes the Section 3.1 entry checkpoint into cp,
// reusing its free-list buffers. PRE enters runahead on every long-latency
// stall, so this path must not allocate.
func (r *Renamer) CheckpointSpecInto(cp *Checkpoint) {
	cp.rat = r.rat
	cp.ratPC = r.ratPC
	cp.intFree = append(cp.intFree[:0], r.intFree...)
	cp.fpFree = append(cp.fpFree[:0], r.fpFree...)
}

// RestoreSpec restores a CheckpointSpec: the RAT and the free lists return
// exactly to their entry state; every runahead allocation is implicitly
// discarded. Poison marks on runahead-allocated registers are cleared
// lazily on their next allocation.
func (r *Renamer) RestoreSpec(cp *Checkpoint) {
	r.rat = cp.rat
	r.ratPC = cp.ratPC
	r.intFree = r.intFree[:0]
	r.intFree = append(r.intFree, cp.intFree...)
	r.fpFree = r.fpFree[:0]
	r.fpFree = append(r.fpFree, cp.fpFree...)
}

// CheckpointCommitted snapshots the committed RAT — traditional runahead's
// entry checkpoint (the architectural state at the stalling load).
func (r *Renamer) CheckpointCommitted() *Checkpoint {
	cp := &Checkpoint{}
	r.CheckpointCommittedInto(cp)
	return cp
}

// CheckpointCommittedInto writes the committed-RAT checkpoint into cp —
// the allocation-free variant used on every RA/RA-buffer entry.
func (r *Renamer) CheckpointCommittedInto(cp *Checkpoint) {
	cp.rat = r.committed
	cp.ratPC = r.ratPC
	cp.intFree = cp.intFree[:0]
	cp.fpFree = cp.fpFree[:0]
}

// RestoreFull rebuilds the whole rename state from a committed-state
// checkpoint: both RATs point at the checkpoint mappings, those registers
// are ready and unpoisoned, and every other physical register is free.
// Traditional runahead and the runahead buffer use this at exit, after the
// full pipeline flush discards every in-flight µop.
func (r *Renamer) RestoreFull(cp *Checkpoint) {
	r.rat = cp.rat
	r.ratPC = cp.ratPC
	r.committed = cp.rat
	inUse := r.inUseScratch
	for i := range inUse {
		inUse[i] = false
	}
	for a := uarch.Reg(0); a < uarch.RegLimit; a++ {
		if p := cp.rat[a]; p != PRegNone {
			inUse[p] = true
			r.pregs[p].ready = true
			r.pregs[p].poison = false
		}
	}
	r.intFree = r.intFree[:0]
	r.fpFree = r.fpFree[:0]
	for p := PReg(1); int(p) <= r.cfg.IntPRF+r.cfg.FPPRF; p++ {
		if !inUse[p] {
			r.Free(p)
		}
	}
}

// --- full-state snapshot (E6 ablation support) ---------------------------

// FullSnapshot captures the renamer's complete state, including the
// committed RAT, free lists and per-register ready/poison bits. The E6
// ablation ("runahead without discarding the window") uses it to restore
// the pipeline exactly as it was at runahead entry.
type FullSnapshot struct {
	rat       [uarch.RegLimit]PReg
	ratPC     [uarch.RegLimit]uint64
	committed [uarch.RegLimit]PReg
	intFree   []PReg
	fpFree    []PReg
	pregs     []pstate
}

// TakeFullSnapshotInto deep-copies the renamer state into s, reusing its
// buffers — the allocation-free variant for per-episode snapshots.
func (r *Renamer) TakeFullSnapshotInto(s *FullSnapshot) {
	s.rat = r.rat
	s.ratPC = r.ratPC
	s.committed = r.committed
	s.intFree = append(s.intFree[:0], r.intFree...)
	s.fpFree = append(s.fpFree[:0], r.fpFree...)
	s.pregs = append(s.pregs[:0], r.pregs...)
}

// RestoreFullSnapshot restores a TakeFullSnapshot copy.
func (r *Renamer) RestoreFullSnapshot(s *FullSnapshot) {
	r.rat = s.rat
	r.ratPC = s.ratPC
	r.committed = s.committed
	r.intFree = append(r.intFree[:0], s.intFree...)
	r.fpFree = append(r.fpFree[:0], s.fpFree...)
	copy(r.pregs, s.pregs)
}
