package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec feeds raw request bodies through the server's decoder and
// JobSpec.Matrix. Neither may panic, and an accepted spec must respect
// the bounds that keep its allocations small: every knob value in
// [0, maxKnobValue] and a population count in [1, maxPopulationCount].
// Small accepted specs are also expanded, which samples every scenario
// and validates every cell configuration; Expand may reject a spec but
// must not panic on one. The corpus under testdata/fuzz holds the server
// tests' spec bodies and the specs that once ran the server out of
// memory; every catalogue experiment, at a small window, seeds it too.
//
// Run the generator with:
//
//	go test -run '^$' -fuzz FuzzJobSpec -fuzztime 20s ./internal/serve
func FuzzJobSpec(f *testing.F) {
	for _, e := range Catalog() {
		body, err := json.Marshal(windowed(e))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		m, err := spec.Matrix()
		if err != nil {
			return
		}
		for _, pt := range spec.Points {
			for name, v := range pt.Knobs {
				if v < 0 || v > maxKnobValue {
					t.Fatalf("accepted knob %q = %d outside [0, %d]", name, v, maxKnobValue)
				}
			}
		}
		if p := spec.Population; p != nil && (p.Count < 1 || p.Count > maxPopulationCount) {
			t.Fatalf("accepted population count %d outside [1, %d]", p.Count, maxPopulationCount)
		}
		if p := spec.Population; p != nil && p.Count > 8 {
			return
		}
		_, _ = m.Expand() // a rejected spec is fine; a panic is not
	})
}
