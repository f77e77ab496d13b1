// CellKey: the exported, versioned, content-addressable identity of one
// deduplicated simulation. It is the same canonical identity Expand has
// always used internally to deduplicate runs (workload, window, energy
// model, canonical per-mode configuration), promoted to a public type so
// a persistent result cache (internal/serve/cache) can key on it — two
// runs with equal keys are guaranteed to produce equal Results, so a
// cache hit is substitutable for a simulation by construction.
//
// Stability contract: CellKey.String and CellKey.Hash are CACHE
// identities. Any change to their bytes — a canonicalization tweak, a
// core.Config field addition, a format change — silently poisons every
// persisted cache entry unless KeyVersion is bumped alongside it. The
// golden-key tests (key_test.go) pin representative String/Hash/Seed
// values so such a change fails CI and forces a conscious bump.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload/synth"
)

// KeyVersion identifies the CellKey canonicalization and layout. Bump it
// whenever the key bytes of an unchanged simulation would change (new
// core.Config fields, canonicalConfig table edits, format changes): the
// version is part of the key string, so a bump invalidates every
// persisted cache entry at once instead of silently aliasing old results
// onto new semantics. It is versioned alongside SchemaVersion — the
// schema version is baked into the key too, because the cached payload
// is a schema-shaped Result.
const KeyVersion = 1

// CellKey is the canonical identity of one unique simulation run.
// Build one with CellKeyFor; the zero value is not a valid key. The
// exported fields are read-only after CellKeyFor: it renders the key's
// String, Hash and seed bytes once and memoizes them, so a field written
// afterwards would not show in any of the three.
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
	// Energy is the canonical energy-model identity ("default" or the
	// rendered override parameters).
	Energy string
	// Config is the canonical configuration: every knob the mode does
	// not read has been zeroed (see canonicalConfig), so configurations
	// that cannot produce different Results fingerprint identically.
	Config core.Config

	// seedStr, str and hash memoize seedKey, String and Hash. CellKeyFor
	// fills them; a key built any other way leaves them empty and renders
	// on every call, with the same bytes.
	seedStr, str, hash string
}

// CellKeyFor builds the canonical key of one (workload, options, config)
// simulation. params carries the sampled synth scenario parameters for
// population workloads and must be nil for fixed workloads. The config is
// canonicalized here; callers pass the fully-applied configuration.
func CellKeyFor(workloadName string, params *synth.Params, opt sim.Options, cfg core.Config) CellKey {
	energy := "default"
	if opt.Energy != nil {
		energy = fmt.Sprintf("%+v", *opt.Energy)
	}
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
		Energy:      energy,
		Config:      canonicalConfig(cfg),
	}
	// Each rendering reuses the one before it: String embeds seedKey and
	// Hash digests String.
	k.seedStr = k.seedKey()
	k.str = k.String()
	k.hash = k.Hash()
	return k
}

// seedKey renders the key in the pre-export runKey layout. These bytes
// are FROZEN: per-run seeds (Plan.Seed, the "seed" field of every cell
// in the results JSON) are derived by hashing exactly this string, and
// the results JSON is covered by the byte-identical golden contract.
// New identity components (KeyVersion, SchemaVersion, SynthParams) live
// only in String, never here.
func (k CellKey) seedKey() string {
	if k.seedStr != "" {
		return k.seedStr
	}
	var buf [2048]byte // keys render to ~1.2 KB; the buffer stays on the stack
	b := fmt.Appendf(buf[:0], "w=%s|warm=%d|meas=%d|energy=%s|cfg=%+v",
		k.Workload, k.WarmupUops, k.MeasureUops, k.Energy, k.Config)
	// core.Config's last two fields were removed with the fast-runahead
	// tier; their exact-tier rendering stays here so every seed is unchanged.
	b = append(b[:len(b)-1], " Fidelity:exact ChainCacheSize:0}"...)
	return string(b)
}

// String renders the full versioned cache identity. Two runs with equal
// strings produce equal Results; the converse direction (unequal strings
// for runs that would differ) is what canonicalConfig and the
// golden-key tests guard.
func (k CellKey) String() string {
	if k.str != "" {
		return k.str
	}
	return fmt.Sprintf("cellkey/v%d|schema=%d|synth=%s|%s",
		KeyVersion, SchemaVersion, k.SynthParams, k.seedKey())
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

// Seed derives the run's deterministic seed from its identity: an FNV-1a
// hash of the frozen seed-key bytes pushed through a splitmix64
// finalizer. Seeds are stable across worker counts, process runs, and
// plan rebuilds; they are serialized into the results JSON, so this
// derivation is part of the byte-identical contract.
func (k CellKey) Seed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.seedKey()))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
