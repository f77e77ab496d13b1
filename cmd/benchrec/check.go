package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
)

// digestFile is where -update writes the digest table, relative to the
// repository root (the directory run.sh runs from).
const digestFile = "cmd/benchrec/testdata/digests.json"

//go:embed testdata/digests.json
var digestJSON []byte

// digestTable maps workload → cell id → projection digest.
type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	t := make(digestTable)
	if err := json.Unmarshal(digestJSON, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return t, nil
}

// cellID names one cell across the workload's specs.
func cellID(spec string, c exp.Cell) string {
	return spec + "/" + c.Point + "/" + c.Workload + "/" + c.Mode
}

// digest hashes a cell's projection: its identity plus the simulated
// statistics a mechanism or memory-system change would move. It covers
// existing sim.Result fields only, so adding fields to the results
// document or changing cache keys leaves it unchanged.
func digest(c exp.Cell) string {
	r := c.Result
	s := fmt.Sprintf("%s|%s|%s|%d|%d|%d|%d|%d|%d|%d", c.Workload, c.Mode, c.Point,
		r.Cycles, r.Committed, r.Entries, r.Prefetches, r.DRAMReads, r.L3Misses, r.HWPrefIssued)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// checker is the correctness gate. An operation is one simulated cell or
// one delivered document; it fails when
//   - the cell commits a different µop count than the first mode of its
//     (point, workload), beyond the Width-1 commit bunching, or fewer
//     than the measured window,
//   - the cell's projection digest differs from the pinned one, or is
//     missing from the table, or
//   - a document differs in any byte from the first document of its spec,
//     or the job that should deliver it failed.
type checker struct {
	width   int64
	digests map[string]string // nil: no digest check
	ref     map[string][]byte // spec → first document
	seen    map[string]string // cell id → digest, from first documents

	attempted, failed int
	problems          []string
}

func newChecker(digests map[string]string) *checker {
	return &checker{
		width:   int64(core.Default(core.ModeOoO).Width),
		digests: digests,
		ref:     make(map[string][]byte),
		seen:    make(map[string]string),
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// simulated checks a freshly simulated document: every cell is an
// operation, and the document itself is a delivery of its spec.
func (c *checker) simulated(spec string, doc []byte) []exp.Cell {
	var d exp.Document
	if err := json.Unmarshal(doc, &d); err != nil {
		c.attempted++
		c.fail("%s: undecodable results document: %v", spec, err)
		return nil
	}
	if _, ok := c.ref[spec]; !ok {
		c.ref[spec] = doc
		for _, cell := range d.Cells {
			c.seen[cellID(spec, cell)] = digest(cell)
		}
	} else {
		c.delivered(spec, doc, nil)
	}
	c.cells(spec, d.MeasureUops, d.Cells)
	return d.Cells
}

// cells checks the commit invariant and the digests. Cells arrive in
// expansion order, so each (point, workload) group is one run of
// consecutive cells whose first cell is the reference.
func (c *checker) cells(spec string, measure int64, cells []exp.Cell) {
	var ref exp.Cell
	for i, cell := range cells {
		c.attempted++
		id := cellID(spec, cell)
		if i == 0 || cell.Point != ref.Point || cell.Workload != ref.Workload {
			ref = cell
		}
		got, want := cell.Result.Committed, ref.Result.Committed
		switch {
		case got < measure:
			c.fail("%s: committed %d µops, window is %d", id, got, measure)
		case got-want > c.width-1 || want-got > c.width-1:
			c.fail("%s: committed %d µops vs %d under %s (beyond commit bunching)", id, got, want, ref.Mode)
		case c.digests != nil:
			pinned, ok := c.digests[id]
			if !ok || pinned != digest(cell) {
				c.fail("%s: projection digest %s, pinned %q", id, digest(cell), pinned)
			}
		}
	}
}

// delivered checks one document delivered by a job: it must be byte-
// identical to the spec's reference document.
func (c *checker) delivered(spec string, doc []byte, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: job failed: %v", spec, err)
	case !bytes.Equal(doc, c.ref[spec]):
		c.fail("%s: document differs from the reference (%d vs %d bytes)", spec, len(doc), len(c.ref[spec]))
	}
}

// writeDigests pins the digests of the cells seen in the reference
// documents under the workload's name, keeping the other workloads'
// entries.
func writeDigests(workload string, seen map[string]string) error {
	t, err := loadDigests()
	if err != nil {
		return err
	}
	t[workload] = seen
	// json.Marshal sorts map keys, so the file is stable.
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
