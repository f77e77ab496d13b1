package frontend

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func TestPredictorLearnsLoopBranch(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	u := &uarch.Uop{PC: 0x400000, Class: uarch.ClassBranch, Taken: true, Target: 0x400100}
	// Warm up: the gshare history register must fill with the branch's own
	// outcomes (14 bits) before every indexed counter saturates.
	for i := 0; i < 24; i++ {
		p.PredictAndTrain(u)
	}
	before := p.Mispredicts()
	for i := 0; i < 100; i++ {
		if !p.PredictAndTrain(u) {
			t.Fatalf("iteration %d mispredicted a saturated loop branch", i)
		}
	}
	if p.Mispredicts() != before {
		t.Error("mispredict counter moved on correct predictions")
	}
}

func TestPredictorNotTakenBranch(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	u := &uarch.Uop{PC: 0x400010, Class: uarch.ClassBranch, Taken: false}
	for i := 0; i < 4; i++ {
		p.PredictAndTrain(u)
	}
	if !p.PredictAndTrain(u) {
		t.Error("saturated not-taken branch mispredicted")
	}
}

func TestPredictorAlternatingPattern(t *testing.T) {
	// A period-2 pattern is learnable by gshare via history bits.
	p := NewPredictor(DefaultPredictorConfig())
	u := uarch.Uop{PC: 0x400020, Class: uarch.ClassBranch, Target: 0x400200}
	for i := 0; i < 64; i++ {
		u.Taken = i%2 == 0
		p.PredictAndTrain(&u)
	}
	miss := 0
	for i := 64; i < 192; i++ {
		u.Taken = i%2 == 0
		if !p.PredictAndTrain(&u) {
			miss++
		}
	}
	if miss > 12 {
		t.Errorf("alternating branch mispredicted %d/128 after warmup", miss)
	}
}

func TestPredictorJumpBTB(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	u := &uarch.Uop{PC: 0x400030, Class: uarch.ClassJump, Taken: true, Target: 0x400300}
	if p.PredictAndTrain(u) {
		t.Error("cold BTB jump must mispredict")
	}
	if !p.PredictAndTrain(u) {
		t.Error("warm BTB jump must hit")
	}
}

func TestPredictorCallReturn(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	call := &uarch.Uop{PC: 0x400040, Class: uarch.ClassCall, Taken: true, Target: 0x500000}
	ret := &uarch.Uop{PC: 0x500010, Class: uarch.ClassReturn, Taken: true, Target: 0x400044}
	p.PredictAndTrain(call) // trains BTB, pushes RAS
	if !p.PredictAndTrain(ret) {
		t.Error("return must hit the RAS")
	}
	// A return without a matching call mispredicts.
	bad := &uarch.Uop{PC: 0x500020, Class: uarch.ClassReturn, Taken: true, Target: 0xdeadbeef}
	if p.PredictAndTrain(bad) {
		t.Error("unmatched return must mispredict")
	}
}

func TestPredictorNonControlAlwaysCorrect(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	u := &uarch.Uop{PC: 0x400050, Class: uarch.ClassIntAlu}
	if !p.PredictAndTrain(u) {
		t.Error("non-control µop cannot mispredict")
	}
}

func TestPredictorConfigValidation(t *testing.T) {
	bad := []PredictorConfig{
		{GshareBits: 2, BTBEntries: 16, RASEntries: 4},
		{GshareBits: 14, BTBEntries: 100, RASEntries: 4},
		{GshareBits: 14, BTBEntries: 16, RASEntries: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad predictor config %d accepted", i)
				}
			}()
			NewPredictor(cfg)
		}()
	}
}

// seqGen emits straight-line ALU µops at consecutive PCs with a taken
// loop-back branch every period µops; optionally mispredictable.
type seqGen struct {
	n      uint64
	period uint64
}

func (g *seqGen) Name() string { return "seq" }
func (g *seqGen) Next(u *uarch.Uop) {
	// Per the Generator contract, fully overwrite *u (the Stream does not
	// zero recycled ring slots).
	slot := g.n % g.period
	*u = uarch.Uop{PC: 0x400000 + slot*4}
	if slot == g.period-1 {
		u.Class = uarch.ClassBranch
		u.Taken = true
		u.Target = 0x400000
	} else {
		u.Class = uarch.ClassIntAlu
		u.Dst = uarch.IntReg(int(slot % 8))
		u.Src1 = uarch.IntReg(int((slot + 1) % 8))
	}
	g.n++
}

func newFetchHarness(qsize int) (*FetchUnit, *trace.Stream) {
	s := trace.NewStream(&seqGen{period: 16})
	p := NewPredictor(DefaultPredictorConfig())
	h := mem.New(mem.Default())
	cfg := DefaultFetchConfig()
	if qsize > 0 {
		cfg.QueueSize = qsize
	}
	return NewFetchUnit(cfg, s, p, h), s
}

// popOne removes the oldest µop if it has cleared the decode pipe by
// cycle now, through the dispatcher's ReadyRun/PopN pair.
func popOne(f *FetchUnit, now int64) (Slot, bool) {
	var run [1]Slot
	if f.ReadyRun(now, run[:]) == 0 {
		return Slot{}, false
	}
	f.PopN(1)
	return run[0], true
}

func TestFetchColdICacheMissStalls(t *testing.T) {
	f, _ := newFetchHarness(0)
	f.Cycle(0)
	if f.QueueLen() != 0 {
		t.Fatal("cold I-cache fetch must produce nothing (line miss)")
	}
	if f.Stats().ICacheStallCy == 0 {
		// First cycle issues the line fetch; subsequent cycles stall.
		f.Cycle(1)
		if f.Stats().ICacheStallCy == 0 {
			t.Error("I-cache stall cycles not recorded")
		}
	}
}

func TestFetchDeliversAfterDepth(t *testing.T) {
	f, _ := newFetchHarness(0)
	// Warm the I-cache first.
	var now int64
	for f.QueueLen() == 0 {
		f.Cycle(now)
		now++
	}
	fetchCycle := now - 1
	var run [1]Slot
	if f.ReadyRun(fetchCycle, run[:]) != 0 {
		t.Fatalf("µop visible at fetch cycle: %+v", run[0])
	}
	slot, ok := popOne(f, fetchCycle+8)
	if !ok {
		t.Fatal("µop must clear the 8-deep pipe")
	}
	if slot.Ready != fetchCycle+8 {
		t.Errorf("ready = %d, want fetch+8 = %d", slot.Ready, fetchCycle+8)
	}
	if slot.Seq != 0 {
		t.Errorf("first pop seq = %d, want 0", slot.Seq)
	}
}

func TestFetchWidthPerCycle(t *testing.T) {
	f, _ := newFetchHarness(0)
	var now int64
	for f.QueueLen() == 0 {
		f.Cycle(now)
		now++
	}
	n0 := f.QueueLen()
	f.Cycle(now)
	if f.QueueLen()-n0 > 8 {
		t.Errorf("fetched %d µops in one cycle, width is 8", f.QueueLen()-n0)
	}
}

func TestFetchQueueBackpressure(t *testing.T) {
	f, _ := newFetchHarness(8)
	var now int64
	for i := 0; i < 200; i++ {
		f.Cycle(now)
		now++
	}
	if f.QueueLen() > 8 {
		t.Errorf("queue grew to %d, cap is 8", f.QueueLen())
	}
}

func TestFetchPopFIFOOrder(t *testing.T) {
	f, _ := newFetchHarness(0)
	var now int64
	for i := 0; i < 400; i++ { // cover the cold I-cache miss (~200 cycles)
		f.Cycle(now)
		now++
	}
	var last int64 = -1
	for {
		s, ok := popOne(f, now+100)
		if !ok {
			break
		}
		if s.Seq != last+1 {
			t.Fatalf("pop order broken: %d after %d", s.Seq, last)
		}
		last = s.Seq
	}
	if last < 0 {
		t.Fatal("nothing popped")
	}
}

func TestMispredictFreezesUntilRedirect(t *testing.T) {
	// period-16 loop: the loop-back branch is taken; cold BTB makes the
	// first encounter a mispredict, freezing fetch at seq 15.
	f, _ := newFetchHarness(0)
	var now int64
	for i := 0; i < 2000 && !f.Frozen(now); i++ {
		f.Cycle(now)
		now++
	}
	if !f.Frozen(now) {
		t.Fatal("fetch must freeze after the cold mispredicted branch")
	}
	if f.NextSeq() != 16 {
		t.Fatalf("fetch stopped at seq %d, want 16 (after branch)", f.NextSeq())
	}
	f.Redirect(now + 5)
	if f.Frozen(now + 5) {
		t.Error("fetch still frozen after redirect")
	}
	pre := f.QueueLen()
	f.Cycle(now + 5)
	if f.QueueLen() == pre {
		t.Error("fetch did not resume after redirect")
	}
}

func TestBubbleFreezesTemporarily(t *testing.T) {
	f, _ := newFetchHarness(0)
	var now int64
	for f.QueueLen() == 0 {
		f.Cycle(now)
		now++
	}
	f.Bubble(now, 8)
	if !f.Frozen(now + 7) {
		t.Error("bubble must freeze for its duration")
	}
	if f.Frozen(now + 8) {
		t.Error("bubble must thaw after its duration")
	}
}

func TestRewindRestartsFetch(t *testing.T) {
	f, _ := newFetchHarness(0)
	var now int64
	for f.QueueLen() == 0 { // ride out the cold I-cache miss
		f.Cycle(now)
		now++
	}
	f.Rewind(3, now+10)
	if f.QueueLen() != 0 {
		t.Error("rewind must clear the pipe")
	}
	if f.NextSeq() != 3 {
		t.Errorf("rewind seq = %d, want 3", f.NextSeq())
	}
	if !f.Frozen(now + 9) {
		t.Error("rewound fetch must stay frozen until resume")
	}
	for i := int64(10); i < 40; i++ {
		f.Cycle(now + i)
	}
	s, ok := popOne(f, now+100)
	if !ok || s.Seq != 3 {
		t.Fatalf("first refetched µop = %+v, want seq 3", s)
	}
}

func TestFreezeStopsFetchUntilRewind(t *testing.T) {
	f, _ := newFetchHarness(0)
	var now int64
	for f.QueueLen() == 0 {
		f.Cycle(now)
		now++
	}
	n := f.QueueLen()
	f.Freeze()
	for i := int64(0); i < 20; i++ {
		f.Cycle(now + i)
	}
	if f.QueueLen() != n {
		t.Error("frozen fetch must not fetch")
	}
	if f.Stats().FreezeCycles == 0 {
		t.Error("freeze cycles not counted")
	}
}

func TestFetchStatsReset(t *testing.T) {
	f, _ := newFetchHarness(0)
	for i := int64(0); i < 400; i++ {
		f.Cycle(i)
	}
	if f.Stats().FetchedUops == 0 {
		t.Fatal("no µops fetched in 400 cycles")
	}
	f.ResetStats()
	if f.Stats().FetchedUops != 0 {
		t.Error("ResetStats failed")
	}
}
