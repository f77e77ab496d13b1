// Package dram models DDR3 main-memory timing at bank/row granularity,
// matching the paper's Table 1 configuration: DDR3-1600 (800 MHz memory
// clock), 4 ranks, 32 banks total, 4 KB pages (rows), a 64-bit data bus,
// and tRP-tCL-tRCD = 11-11-11 memory cycles.
//
// The model is resource-reservation based: each bank and the shared data
// bus keep a busy-until timestamp in core cycles. A request computes its
// completion time analytically at issue, reserving the resources it uses.
// This captures the phenomena runahead execution exercises — bank-level
// parallelism (MLP), row-buffer locality of prefetch streams, and bus
// serialization — without a discrete event queue.
//
// An open-page policy keeps the row buffer open after an access: a
// subsequent access to the same row pays only tCL, a different row pays
// tRP+tRCD+tCL.
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/uarch"
)

// Config describes the memory system geometry and timing.
type Config struct {
	// MemClockMHz is the DRAM command clock (800 for DDR3-1600).
	MemClockMHz int
	// CoreClockMHz is the core clock, used to convert memory cycles to
	// core cycles (2660 in the paper's configuration).
	CoreClockMHz int
	// Ranks and BanksPerRank give the bank geometry (4 × 8 = 32 banks).
	Ranks, BanksPerRank int
	// RowBytes is the DRAM page size in bytes (4096).
	RowBytes int
	// BusBytes is the data bus width in bytes (8 for a 64-bit bus).
	BusBytes int
	// TRP, TCL, TRCD are the precharge, CAS and RAS-to-CAS latencies in
	// memory cycles (11-11-11).
	TRP, TCL, TRCD int
	// CtrlLatency is the fixed on-chip latency in core cycles added to
	// every request: memory-controller queueing/scheduling pipeline plus
	// the on-chip interconnect round trip. At 2.66 GHz, 80 cycles is
	// ~30 ns; with the cache-walk and DRAM timing on top, an idle LLC
	// miss costs ~250 core cycles from the core and more under load —
	// the "couple hundred cycles" the paper describes.
	CtrlLatency int
}

// Default returns the paper's Table 1 memory configuration.
func Default() Config {
	return Config{
		MemClockMHz:  800,
		CoreClockMHz: 2660,
		Ranks:        4,
		BanksPerRank: 8,
		RowBytes:     4096,
		BusBytes:     8,
		TRP:          11,
		TCL:          11,
		TRCD:         11,
		CtrlLatency:  80,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.MemClockMHz <= 0 || c.CoreClockMHz <= 0:
		return fmt.Errorf("dram: non-positive clock")
	case c.Ranks <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("dram: non-positive bank geometry")
	case bits.OnesCount(uint(c.Ranks)) != 1 || bits.OnesCount(uint(c.BanksPerRank)) != 1:
		return fmt.Errorf("dram: ranks and banks must be powers of two")
	case c.RowBytes < uarch.LineSize || bits.OnesCount(uint(c.RowBytes)) != 1:
		return fmt.Errorf("dram: bad row size %d", c.RowBytes)
	case c.BusBytes <= 0 || c.BusBytes > uarch.LineSize:
		return fmt.Errorf("dram: bad bus width %d", c.BusBytes)
	case c.TRP < 0 || c.TCL <= 0 || c.TRCD < 0 || c.CtrlLatency < 0:
		return fmt.Errorf("dram: bad timing parameters")
	}
	return nil
}

// bank tracks one DRAM bank's row buffer and availability.
type bank struct {
	openRow   int64 // -1 = closed (precharged)
	busyUntil int64 // core cycle when the bank can accept a new command
}

// Stats aggregates memory-system counters.
type Stats struct {
	Reads       int64
	Writes      int64
	RowHits     int64
	RowMisses   int64 // closed-row activations
	RowConflict int64 // open different row: precharge + activate
	BusBusyCyc  int64 // core cycles the data bus was reserved
}

// DRAM is the main-memory timing model. Not safe for concurrent use.
type DRAM struct {
	cfg   Config
	banks []bank
	bus   int64 // data bus busy-until, core cycles

	// Precomputed core-cycle versions of the memory timings.
	tRP, tCL, tRCD, tBurst int64

	bankShift  uint // line-address bit where bank id begins
	bankMask   uint64
	rowShift   uint
	totalBanks int

	stats Stats
}

// New builds the memory model, panicking on invalid configuration.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	toCore := func(memCycles int) int64 {
		// Round up: a fractional core cycle still occupies a full one.
		n := int64(memCycles) * int64(cfg.CoreClockMHz)
		d := int64(cfg.MemClockMHz)
		return (n + d - 1) / d
	}
	totalBanks := cfg.Ranks * cfg.BanksPerRank
	// Burst length: a 64 B line over a BusBytes-wide DDR bus moves two
	// transfers per memory cycle.
	burstMem := uarch.LineSize / cfg.BusBytes / 2
	if burstMem < 1 {
		burstMem = 1
	}
	d := &DRAM{
		cfg:        cfg,
		banks:      make([]bank, totalBanks),
		tRP:        toCore(cfg.TRP),
		tCL:        toCore(cfg.TCL),
		tRCD:       toCore(cfg.TRCD),
		tBurst:     toCore(burstMem),
		totalBanks: totalBanks,
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	// Address mapping (line-interleaved rows): low bits select the column
	// within a row, then bank, then row. Consecutive rows of the address
	// space stripe across banks, and the bank index is additionally XOR-
	// hashed with row bits (permutation-based interleaving, as in real
	// memory controllers) so that power-of-two strides — stencil planes,
	// matrix rows — do not alias onto a single bank.
	colBits := uint(bits.TrailingZeros(uint(cfg.RowBytes / uarch.LineSize)))
	d.bankShift = colBits
	d.bankMask = uint64(totalBanks - 1)
	d.rowShift = colBits + uint(bits.TrailingZeros(uint(totalBanks)))
	return d
}

// Config returns the configuration in use.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Counters returns the live counters; ResetStats zeroes them in place.
func (d *DRAM) Counters() *Stats { return &d.stats }

// decode splits a byte address into bank index and row id, XOR-folding
// row bits into the bank index (see New).
func (d *DRAM) decode(addr uint64) (bankIdx int, row int64) {
	lineIdx := addr >> 6
	row = int64(lineIdx >> d.rowShift)
	h := (lineIdx >> d.bankShift) ^ uint64(row) ^ (uint64(row) >> 7)
	bankIdx = int(h & d.bankMask)
	return
}

// RowHitKind classifies the row-buffer outcome of an access.
type RowHitKind uint8

// Row buffer outcomes.
const (
	// RowHit: the open row matched (tCL only).
	RowHit RowHitKind = iota
	// RowClosed: the bank was precharged (tRCD + tCL).
	RowClosed
	// RowConflictKind: a different row was open (tRP + tRCD + tCL).
	RowConflictKind
)

// Access issues a read (or write) of the line containing addr at core
// cycle now and returns the core cycle at which the data transfer
// completes, plus the row-buffer outcome. Writes reserve the same
// resources but their completion time matters only for bus contention.
func (d *DRAM) Access(addr uint64, now int64, write bool) (done int64, kind RowHitKind) {
	bankIdx, row := d.decode(addr)
	b := &d.banks[bankIdx]

	start := now + int64(d.cfg.CtrlLatency)
	if b.busyUntil > start {
		start = b.busyUntil
	}

	// Column reads to an open row pipeline at the burst rate (tCCD); only
	// the activate/precharge phases occupy the bank beyond the burst
	// itself. The CAS latency (tCL) is pure pipeline delay to the
	// requester and does not block the bank.
	var lat, bankHold int64
	switch {
	case b.openRow == row:
		kind = RowHit
		lat = d.tCL
		bankHold = d.tBurst
		d.stats.RowHits++
	case b.openRow == -1:
		kind = RowClosed
		lat = d.tRCD + d.tCL
		bankHold = d.tRCD + d.tBurst
		d.stats.RowMisses++
	default:
		kind = RowConflictKind
		lat = d.tRP + d.tRCD + d.tCL
		bankHold = d.tRP + d.tRCD + d.tBurst
		d.stats.RowConflict++
	}

	dataReady := start + lat
	// Reserve the shared data bus for the burst.
	xferStart := dataReady
	if d.bus > xferStart {
		xferStart = d.bus
	}
	done = xferStart + d.tBurst
	d.bus = done
	d.stats.BusBusyCyc += d.tBurst

	b.openRow = row
	b.busyUntil = start + bankHold

	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return done, kind
}

// MinReadLatency returns the best-case (row hit, idle system) read latency
// in core cycles — useful for calibrating runahead-entry heuristics.
func (d *DRAM) MinReadLatency() int64 {
	return int64(d.cfg.CtrlLatency) + d.tCL + d.tBurst
}

// TypicalReadLatency returns the closed-row, idle-system latency.
func (d *DRAM) TypicalReadLatency() int64 {
	return int64(d.cfg.CtrlLatency) + d.tRCD + d.tCL + d.tBurst
}

// NumBanks returns the total bank count.
func (d *DRAM) NumBanks() int { return d.totalBanks }

// BankOf exposes the bank index for an address (tests and workload
// calibration).
func (d *DRAM) BankOf(addr uint64) int {
	b, _ := d.decode(addr)
	return b
}

// RowOf exposes the row id for an address (tests).
func (d *DRAM) RowOf(addr uint64) int64 {
	_, r := d.decode(addr)
	return r
}
