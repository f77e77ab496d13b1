// CellKey: the exported, versioned, content-addressable identity of one
// deduplicated simulation — the identity Expand deduplicates runs by and
// the key a persistent result cache (internal/serve/cache) stores results
// under. Two runs with equal keys produce equal Results, so a cache hit
// is substitutable for a simulation by construction.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload/synth"
)

// KeyVersion identifies the CellKey canonicalization and layout. String
// and Hash are cache identities: bump KeyVersion whenever the key bytes of
// an unchanged simulation would change (canonicalConfig table edits,
// format changes, a new config field with a non-zero default), or when
// simulated behaviour changes without any config field recording it, so
// every persisted cache entry is invalidated at once instead of silently
// aliasing old results onto new semantics. The golden-key tests
// (key_test.go) pin representative hashes. The schema version is part of
// the key too, because the cached payload is a schema-shaped Result.
//
// v2: the config renders as its non-zero leaves by field path, not %+v,
// and the energy-model component is gone.
const KeyVersion = 2

// CellKey is the canonical identity of one unique simulation run.
// Build one with CellKeyFor; the zero value is not a valid key. The
// exported fields are read-only after CellKeyFor: it renders the key's
// String and Hash once and memoizes them, so a field written afterwards
// would not show in either.
type CellKey struct {
	// Workload is the workload's report name (a suite proxy like "mcf",
	// or a synth scenario name like "s1a2b3c4d5e6f708").
	Workload string
	// SynthParams is the canonical JSON of the sampled scenario
	// parameters, or "" for fixed workloads. Scenario names alone do not
	// identify the generator across sampling spaces (two spaces can
	// sample the same seed), so the full parameters are part of the
	// cache identity.
	SynthParams string
	// WarmupUops and MeasureUops are the simulation window.
	WarmupUops, MeasureUops int64
	// Config is the canonical configuration: every knob the mode does
	// not read has been zeroed (see canonicalConfig), so configurations
	// that cannot produce different Results fingerprint identically.
	Config core.Config

	// str and hash memoize String and Hash. CellKeyFor fills them; a key
	// built any other way leaves them empty and renders on every call,
	// with the same bytes.
	str, hash string
}

// CellKeyFor builds the canonical key of one (workload, options, config)
// simulation. params carries the sampled synth scenario parameters for
// population workloads and must be nil for fixed workloads. The config is
// canonicalized here; callers pass the fully-applied configuration.
func CellKeyFor(workloadName string, params *synth.Params, opt sim.Options, cfg core.Config) CellKey {
	sp := ""
	if params != nil {
		// Params is plain data (strings, ints, slices of structs of the
		// same); Marshal cannot fail on it, and Go's encoding/json emits
		// struct fields in declaration order, so the bytes are canonical.
		b, err := json.Marshal(params)
		if err != nil {
			panic(fmt.Sprintf("exp: synth params unmarshalable: %v", err))
		}
		sp = string(b)
	}
	k := CellKey{
		Workload:    workloadName,
		SynthParams: sp,
		WarmupUops:  opt.WarmupUops,
		MeasureUops: opt.MeasureUops,
		Config:      canonicalConfig(cfg),
	}
	k.str = k.String()
	k.hash = k.Hash()
	return k
}

// String renders the full versioned cache identity: versions, workload,
// synth parameters, window, and the canonical config's non-zero leaves
// by field path. Two runs with equal strings produce equal Results; the
// converse direction (unequal strings for runs that would differ) is what
// canonicalConfig and the key tests guard.
func (k CellKey) String() string {
	if k.str != "" {
		return k.str
	}
	var buf [1024]byte // keys render to ~0.6 KB; the buffer stays on the stack
	b := fmt.Appendf(buf[:0], "cellkey/v%d|schema=%d|w=%s|synth=%s|warm=%d|meas=%d|cfg=",
		KeyVersion, SchemaVersion, k.Workload, k.SynthParams, k.WarmupUops, k.MeasureUops)
	b = appendCanonical(b, reflect.ValueOf(&k.Config).Elem(), configLeaves)
	return string(b)
}

// Hash returns the hex SHA-256 of String — the content address used as
// the persistent store's filename and the in-memory cache's map key.
func (k CellKey) Hash() string {
	if k.hash != "" {
		return k.hash
	}
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}

// leaf is one scalar field of a struct type, reached from the top by the
// field indices in index and named by its dotted path ("Mem.L1D.MSHRs").
type leaf struct {
	path  string
	index []int
}

// configLeaves lists core.Config's leaves once, at package init:
// reflect.Type.Field allocates, and a field the encoding cannot render
// fails every program that links exp, not just the first key.
var configLeaves = leavesOf(reflect.TypeOf(core.Config{}))

// leavesOf lists t's scalar leaves in declaration order, descending into
// nested structs. It panics on a field of any kind the canonical encoding
// cannot render, so a new field type can never drop out of the key
// silently.
func leavesOf(t reflect.Type) []leaf {
	var ls []leaf
	var walk func(t reflect.Type, prefix string, index []int)
	walk = func(t reflect.Type, prefix string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(index[:len(index):len(index)], i)
			switch k := f.Type.Kind(); {
			case k == reflect.Struct:
				walk(f.Type, prefix+f.Name+".", idx)
			case k == reflect.Bool || k == reflect.String || k >= reflect.Int && k <= reflect.Uint64:
				ls = append(ls, leaf{path: prefix + f.Name, index: idx})
			default:
				panic(fmt.Sprintf("exp: canonical encoding cannot render %s%s (%s)", prefix, f.Name, f.Type))
			}
		}
	}
	walk(t, "", nil)
	return ls
}

// appendCanonical appends "Path=value;" for every non-zero leaf of the
// struct v (leaves = leavesOf(v.Type())), in declaration order. Zero
// leaves are left out, so adding a zero-valued field to the type changes
// no encoding.
func appendCanonical(b []byte, v reflect.Value, leaves []leaf) []byte {
	for _, l := range leaves {
		f := v.FieldByIndex(l.index)
		if f.IsZero() {
			continue
		}
		b = append(b, l.path...)
		b = append(b, '=')
		switch {
		case f.Kind() == reflect.Bool:
			b = append(b, "true"...)
		case f.Kind() == reflect.String:
			b = strconv.AppendQuote(b, f.String())
		case f.CanInt():
			b = strconv.AppendInt(b, f.Int(), 10)
		default: // the unsigned kinds leavesOf admits
			b = strconv.AppendUint(b, f.Uint(), 10)
		}
		b = append(b, ';')
	}
	return b
}
