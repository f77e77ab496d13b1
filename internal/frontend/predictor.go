// Package frontend models the processor front-end: branch prediction
// (gshare + BTB + return-address stack) and the fetch/decode pipe that
// feeds the micro-op queue through a configurable number of front-end
// stages (Table 1: depth 8, width 4; the paper's runahead front-end
// delivers up to 8 µops/cycle to the SST filter).
//
// The simulator is trace-driven on the true path: wrong-path µops are
// never simulated. A misprediction therefore manifests as a fetch freeze —
// the front-end stops supplying µops until the branch resolves and the
// redirect completes — which charges the misprediction penalty without
// modelling wrong-path contents.
package frontend

import "repro/internal/uarch"

// PredictorConfig sizes the branch prediction structures.
type PredictorConfig struct {
	// GshareBits is log2 of the pattern history table size (14 = 16K
	// two-bit counters, a 4 KB table).
	GshareBits int
	// BTBEntries is the branch target buffer size (power of two).
	BTBEntries int
	// RASEntries is the return address stack depth.
	RASEntries int
}

// DefaultPredictorConfig returns the baseline predictor.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{GshareBits: 14, BTBEntries: 4096, RASEntries: 32}
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is the combined direction/target predictor. Because the
// simulator never leaves the true path, prediction and training happen in
// one step: PredictAndTrain reports whether fetch would have continued on
// the correct path.
type Predictor struct {
	cfg     PredictorConfig
	pht     []uint8 // 2-bit saturating counters
	phtMask uint64
	hist    uint64
	histMsk uint64
	btb     []btbEntry
	btbMask uint64
	ras     []uint64
	rasTop  int

	mispredicts int64
}

// NewPredictor builds a predictor, panicking on non-power-of-two sizes.
func NewPredictor(cfg PredictorConfig) *Predictor {
	if cfg.GshareBits < 4 || cfg.GshareBits > 24 {
		panic("frontend: GshareBits out of range")
	}
	if cfg.BTBEntries <= 0 || cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic("frontend: BTBEntries must be a power of two")
	}
	if cfg.RASEntries <= 0 {
		panic("frontend: RASEntries must be positive")
	}
	n := 1 << cfg.GshareBits
	p := &Predictor{
		cfg:     cfg,
		pht:     make([]uint8, n),
		phtMask: uint64(n - 1),
		histMsk: uint64(n - 1),
		btb:     make([]btbEntry, cfg.BTBEntries),
		btbMask: uint64(cfg.BTBEntries - 1),
		ras:     make([]uint64, cfg.RASEntries),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	return p
}

// Mispredicts returns the number of incorrect predictions so far.
func (p *Predictor) Mispredicts() int64 { return p.mispredicts }

// ResetStats zeroes the counters without clearing learned state.
func (p *Predictor) ResetStats() { p.mispredicts = 0 }

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return ((pc >> 2) ^ p.hist) & p.phtMask
}

func (p *Predictor) btbIndex(pc uint64) uint64 { return (pc >> 2) & p.btbMask }

// PredictAndTrain predicts the control µop u, trains the structures with
// the true outcome, and reports whether the prediction (direction and
// target) was correct.
func (p *Predictor) PredictAndTrain(u *uarch.Uop) bool {
	correct := true
	switch u.Class {
	case uarch.ClassBranch:
		idx := p.phtIndex(u.PC)
		predTaken := p.pht[idx] >= 2
		if predTaken != u.Taken {
			correct = false
		}
		// Train the counter and history with the true outcome.
		if u.Taken {
			if p.pht[idx] < 3 {
				p.pht[idx]++
			}
		} else if p.pht[idx] > 0 {
			p.pht[idx]--
		}
		p.hist = ((p.hist << 1) | b2u(u.Taken)) & p.histMsk
		// A predicted- and actually-taken branch still needs its target.
		if u.Taken && correct {
			correct = p.predictTarget(u.PC, u.Target)
		}
	case uarch.ClassJump:
		correct = p.predictTarget(u.PC, u.Target)
	case uarch.ClassCall:
		correct = p.predictTarget(u.PC, u.Target)
		p.rasPush(u.PC + 4)
	case uarch.ClassReturn:
		correct = p.rasPop() == u.Target
	default:
		// Non-control µops are never mispredicted.
		return true
	}
	if !correct {
		p.mispredicts++
	}
	return correct
}

// predictTarget checks the BTB for pc's target and installs the true one.
func (p *Predictor) predictTarget(pc, target uint64) bool {
	e := &p.btb[p.btbIndex(pc)]
	hit := e.valid && e.tag == pc && e.target == target
	*e = btbEntry{tag: pc, target: target, valid: true}
	return hit
}

func (p *Predictor) rasPush(ret uint64) {
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.ras[p.rasTop] = ret
}

func (p *Predictor) rasPop() uint64 {
	v := p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
