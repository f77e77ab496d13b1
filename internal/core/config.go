// Package core implements the cycle-stepped out-of-order core model and
// the four runahead mechanisms the paper evaluates on top of it:
//
//   - ModeOoO:      the Table 1 baseline, no runahead.
//   - ModeRA:       traditional runahead (Mutlu et al.) with the
//     efficiency optimizations (short-interval filter): on a
//     full-window stall the pipeline keeps executing and
//     pseudo-retiring µops; at exit everything is flushed and
//     re-fetched from the stalling load.
//   - ModeRABuffer: filtered runahead (Hashemi et al.): a backward
//     dataflow walk extracts the stalling dependence chain,
//     which replays from a 32-µop buffer while the front-end
//     is power-gated; same flush/refill exit as ModeRA.
//   - ModePRE:      precise runahead execution (this paper): the ROB is
//     neither discarded nor flushed; the front-end keeps
//     running at 8 µops/cycle; only µops whose PCs hit the
//     SST execute, on free physical registers reclaimed
//     in-order by the PRDQ; at exit the RAT checkpoint is
//     restored and commit resumes immediately.
//   - ModePREEMQ:   PRE plus the Extended Micro-op Queue: all µops decoded
//     during runahead are buffered and re-dispatched from the
//     EMQ at exit instead of being re-fetched; runahead depth
//     is bounded by the EMQ capacity.
package core

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/rename"
)

// Mode selects the runahead mechanism.
type Mode uint8

// Runahead mechanisms (see package comment).
const (
	ModeOoO Mode = iota
	ModeRA
	ModeRABuffer
	ModePRE
	ModePREEMQ
	numModes
)

var modeNames = [numModes]string{"OoO", "RA", "RA-buffer", "PRE", "PRE+EMQ"}

// String returns the paper's name for the mechanism.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode resolves a mechanism name as used in reports and CLI flags.
func ParseMode(s string) (Mode, error) {
	for m := ModeOoO; m < numModes; m++ {
		if modeNames[m] == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want OoO, RA, RA-buffer, PRE, PRE+EMQ)", s)
}

// Modes lists all mechanisms in evaluation order.
func Modes() []Mode {
	return []Mode{ModeOoO, ModeRA, ModeRABuffer, ModePRE, ModePREEMQ}
}

// Config is the full core configuration (Table 1 defaults via Default).
type Config struct {
	// Mode selects the runahead mechanism.
	Mode Mode

	// Width is the rename/dispatch/commit width (Table 1: 4).
	Width int
	// RunaheadWidth is the decode bandwidth into the SST filter during PRE
	// runahead (Methodology: up to 8 µops/cycle).
	RunaheadWidth int
	// ROBSize, IQSize, LQSize, SQSize size the window structures
	// (Table 1: 192, 92, 64, 64).
	ROBSize, IQSize, LQSize, SQSize int

	// IntALU, FPU, LoadPorts, StorePorts, BranchUnits are per-cycle issue
	// capacities per functional-unit pool.
	IntALU, FPU, LoadPorts, StorePorts, BranchUnits int

	// Rename configures the physical register files.
	Rename rename.Config
	// Fetch configures the front-end pipe.
	Fetch frontend.FetchConfig
	// Predictor configures branch prediction.
	Predictor frontend.PredictorConfig
	// Mem configures the cache hierarchy and DRAM.
	Mem mem.Config

	// SSTSize, PRDQSize, EMQSize size the paper's structures
	// (Table 1: 256, 192, 768).
	SSTSize, PRDQSize, EMQSize int
	// ChainMaxLen bounds the runahead buffer's extracted chain (32 µops,
	// as in the runahead-buffer paper).
	ChainMaxLen int
	// MinRunaheadCycles is the RA/RA-buffer short-interval filter: do not
	// enter runahead if the stalling load is predicted to return within
	// this many cycles (Mutlu's efficiency optimization: entering costs a
	// full pipeline discard and a ~56-cycle refill, so short intervals
	// are net losses; PRE enters unconditionally — one of its headline
	// advantages).
	MinRunaheadCycles int64
	// PREMaxDivergence stops PRE's runahead scan after this many
	// unresolved (non-executed) mispredicted branches in one interval,
	// modelling wrong-path divergence of the non-resolving front-end.
	PREMaxDivergence int
	// ReplayLookahead bounds how far (in µops) the runahead-buffer replay
	// engine searches the instruction stream for the next dynamic instance
	// of a chain µop.
	ReplayLookahead int64
	// FreeExit (ablation E6) makes ModeRA exit runahead by restoring the
	// pipeline snapshot taken at entry instead of flushing — the paper's
	// "what if the window were not discarded" estimate.
	FreeExit bool
}

// Default returns the paper's Table 1 configuration for the given mode.
func Default(mode Mode) Config {
	return Config{
		Mode:              mode,
		Width:             4,
		RunaheadWidth:     8,
		ROBSize:           192,
		IQSize:            92,
		LQSize:            64,
		SQSize:            64,
		IntALU:            3,
		FPU:               2,
		LoadPorts:         2,
		StorePorts:        1,
		BranchUnits:       1,
		Rename:            rename.DefaultConfig(),
		Fetch:             frontend.DefaultFetchConfig(),
		Predictor:         frontend.DefaultPredictorConfig(),
		Mem:               mem.Default(),
		SSTSize:           256,
		PRDQSize:          192,
		EMQSize:           768,
		ChainMaxLen:       32,
		MinRunaheadCycles: 64,
		PREMaxDivergence:  4,
		ReplayLookahead:   4096,
	}
}

// ApplyPrefetch installs a hardware-prefetcher variant into the memory
// configuration — the hook every PF-augmented simulation mode uses. Any
// runahead mode composes with any variant: "OoO + stride" and "PRE +
// adaptive" are both just Default(mode) plus ApplyPrefetch. The variant
// carries all three per-level engines plus the PRE-aware filter switch.
func (c *Config) ApplyPrefetch(v prefetch.Variant) {
	c.Mem.L1IPrefetch = v.L1I
	c.Mem.L1DPrefetch = v.L1D
	c.Mem.L2Prefetch = v.L2
	c.Mem.RunaheadFilter = v.Filter
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Mode >= numModes {
		return fmt.Errorf("core: invalid mode %d", c.Mode)
	}
	if c.Width <= 0 || c.RunaheadWidth < c.Width {
		return fmt.Errorf("core: widths must satisfy 0 < Width <= RunaheadWidth")
	}
	if c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("core: non-positive window structure size")
	}
	if c.IntALU <= 0 || c.FPU <= 0 || c.LoadPorts <= 0 || c.StorePorts <= 0 || c.BranchUnits <= 0 {
		return fmt.Errorf("core: non-positive functional unit count")
	}
	if c.SSTSize <= 0 || c.PRDQSize <= 0 || c.EMQSize <= 0 || c.ChainMaxLen <= 0 {
		return fmt.Errorf("core: non-positive runahead structure size")
	}
	if c.MinRunaheadCycles < 0 || c.PREMaxDivergence < 0 || c.ReplayLookahead <= 0 {
		return fmt.Errorf("core: negative runahead parameter")
	}
	if c.FreeExit && c.Mode != ModeRA {
		return fmt.Errorf("core: FreeExit is an ablation of ModeRA only")
	}
	if err := c.Rename.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}
