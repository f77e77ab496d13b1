package presim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	presim "repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/prefetch"
)

// pfGridDigest is the SHA-256 of the results document pfGridDocument
// writes. The document carries every hardware-prefetch counter
// (Issued, Dropped, Redundant, FilteredRA, Fills, Useful, Late) per cell,
// so a drift in how prefetch candidates are classified — which the
// quickstart golden cannot see, since it runs no prefetcher — changes it.
// After an intended model change, print the new digest with
//
//	go test -run TestGoldenPFGridDigest -v
//
// and justify it in the commit message.
const pfGridDigest = "4b41858b30f2f4fea494629f1f04afefa9bd06b4ac572a57b129a3666f9abf65"

// pfGridDocument runs {libquantum, mcf, bwaves} x {OoO, PRE} under the
// stride+bo and adaptive prefetch points (the latter with the PRE-aware
// filter) at a small window and returns the serialized results document.
func pfGridDocument(t *testing.T) []byte {
	t.Helper()
	var ws []presim.Workload
	for _, name := range []string{"libquantum", "mcf", "bwaves"} {
		w, err := presim.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	var pts []exp.Point
	for _, name := range []string{"stride+bo", "adaptive"} {
		v, err := prefetch.VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, exp.Point{Name: name, Apply: func(c *core.Config) { c.ApplyPrefetch(v) }})
	}
	opt := presim.DefaultOptions()
	opt.WarmupUops = 10_000
	opt.MeasureUops = 40_000
	plan, err := exp.Matrix{
		Name:      "pf-grid-digest",
		Workloads: ws,
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Points:    pts,
		Options:   opt,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenPFGridDigest pins the prefetch-grid results byte for byte.
func TestGoldenPFGridDigest(t *testing.T) {
	doc := pfGridDocument(t)
	sum := sha256.Sum256(doc)
	if got := hex.EncodeToString(sum[:]); got != pfGridDigest {
		t.Errorf("prefetch-grid results drifted: digest %s, pinned %s (intended? re-pin pfGridDigest)", got, pfGridDigest)
	}
}
