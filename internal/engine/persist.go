// Result persistence: the flat, versioned JSON form of one completed
// optimization task, written to the durable store (internal/store)
// behind the in-memory result memo. core.CircuitOutcome itself is not
// marshalable — its PathOutcomes carry delay.Path values whose stages
// reference live netlist nodes — so the stored form keeps exactly the
// fields the service's wire shape (WireOptimize) and the CLI consume,
// and rehydration rebuilds synthetic paths carrying the stage
// sequence. Determinism makes the tier transparent: a rehydrated
// result is byte-identical on the wire to a fresh computation, which
// the store-equivalence test pins against the golden session corpus.

package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/leakage"
)

// storedVersion tags the persisted result format. Decoding any other
// version fails, which the cache treats like a miss: a daemon upgraded
// across a format change silently recomputes and overwrites instead of
// serving a misread record.
const storedVersion = 1

// storedResult is the persisted form of one OptimizeResult.
type storedResult struct {
	Version     int             `json:"v"`
	Circuit     string          `json:"circuit"`
	Tc          float64         `json:"tc"`
	Tmin        float64         `json:"tmin"`
	Tmax        float64         `json:"tmax"`
	Gates       int             `json:"gates"`
	Delay       float64         `json:"delay"`
	Area        float64         `json:"area"`
	Feasible    bool            `json:"feasible"`
	Rounds      int             `json:"rounds"`
	Buffers     int             `json:"buffers"`
	NorRewrites int             `json:"norRewrites"`
	Paths       []storedPath    `json:"paths,omitempty"`
	Leakage     *leakage.Result `json:"leakage,omitempty"`
}

// storedPath is the persisted form of one core.PathOutcome: the
// decision fields plus the stage sequence of its path (cell type and
// sizes per stage), enough to rebuild a synthetic delay.Path whose
// Len, Sizes and signature match the original.
type storedPath struct {
	Domain   int           `json:"domain"`
	Method   string        `json:"method"`
	Tmin     float64       `json:"tmin"`
	Tmax     float64       `json:"tmax"`
	Tc       float64       `json:"tc"`
	Delay    float64       `json:"delay"`
	Area     float64       `json:"area"`
	Buffers  int           `json:"buffers"`
	Feasible bool          `json:"feasible"`
	Name     string        `json:"name"`
	TauIn    float64       `json:"tauIn"`
	Stages   []storedStage `json:"stages,omitempty"`
}

// storedStage is one path stage: the gate type and the solved sizes.
type storedStage struct {
	Type     int     `json:"type"`
	CIn      float64 `json:"cin"`
	COff     float64 `json:"coff,omitempty"`
	Inserted bool    `json:"inserted,omitempty"`
}

// storeKeyFor derives the content address of one memoized task: the
// SHA-256 of the composite taskKey, hex-encoded. The memo key already
// spells out (process, fingerprint, constraint, leakage flag)
// collision-free; hashing it yields a fixed-length string inside the
// store's key grammar (the raw key contains '|').
func storeKeyFor(key taskKey) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// encodeStoredResult renders a completed task for the durable tier.
// Results carrying non-finite floats fail here (JSON has no NaN/Inf);
// the cache skips persistence and counts a store error.
func encodeStoredResult(r *OptimizeResult) ([]byte, error) {
	s := storedResult{
		Version:     storedVersion,
		Circuit:     r.Circuit,
		Tc:          r.Tc,
		Tmin:        r.Tmin,
		Tmax:        r.Tmax,
		Gates:       r.Gates,
		Delay:       r.Outcome.Delay,
		Area:        r.Outcome.Area,
		Feasible:    r.Outcome.Feasible,
		Rounds:      r.Outcome.Rounds,
		Buffers:     r.Outcome.Buffers,
		NorRewrites: r.Outcome.NorRewrites,
		Leakage:     r.Outcome.Leakage,
	}
	for _, po := range r.Outcome.PathOutcomes {
		sp := storedPath{
			Domain:   int(po.Domain),
			Method:   po.Method,
			Tmin:     po.Tmin,
			Tmax:     po.Tmax,
			Tc:       po.Tc,
			Delay:    po.Delay,
			Area:     po.Area,
			Buffers:  po.Buffers,
			Feasible: po.Feasible,
		}
		if po.Path != nil {
			sp.Name = po.Path.Name
			sp.TauIn = po.Path.TauIn
			for i := range po.Path.Stages {
				st := &po.Path.Stages[i]
				sp.Stages = append(sp.Stages, storedStage{
					Type:     int(st.Cell.Type),
					CIn:      st.CIn,
					COff:     st.COff,
					Inserted: st.Inserted,
				})
			}
		}
		s.Paths = append(s.Paths, sp)
	}
	return json.Marshal(s)
}

// decodeStoredResult rebuilds an OptimizeResult from its persisted
// form. The rebuilt PathOutcomes carry synthetic delay.Paths — correct
// stage count, cells and sizes, but no netlist node references — which
// is exactly what every consumer of a finished result reads
// (WireOptimize, the CLI, the golden harness).
func decodeStoredResult(data []byte) (*OptimizeResult, error) {
	var s storedResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Version != storedVersion {
		return nil, fmt.Errorf("engine: stored result version %d, want %d", s.Version, storedVersion)
	}
	out := &core.CircuitOutcome{
		Tc:          s.Tc,
		Delay:       s.Delay,
		Area:        s.Area,
		Feasible:    s.Feasible,
		Rounds:      s.Rounds,
		Buffers:     s.Buffers,
		NorRewrites: s.NorRewrites,
		Leakage:     s.Leakage,
	}
	for _, sp := range s.Paths {
		pa := &delay.Path{Name: sp.Name, TauIn: sp.TauIn}
		for _, st := range sp.Stages {
			cell, err := gate.Lookup(gate.Type(st.Type))
			if err != nil {
				return nil, fmt.Errorf("engine: stored path stage: %w", err)
			}
			pa.Stages = append(pa.Stages, delay.Stage{
				Cell:     cell,
				CIn:      st.CIn,
				COff:     st.COff,
				Inserted: st.Inserted,
			})
		}
		out.PathOutcomes = append(out.PathOutcomes, &core.PathOutcome{
			Domain:   core.Domain(sp.Domain),
			Tmin:     sp.Tmin,
			Tmax:     sp.Tmax,
			Tc:       sp.Tc,
			Method:   sp.Method,
			Delay:    sp.Delay,
			Area:     sp.Area,
			Buffers:  sp.Buffers,
			Feasible: sp.Feasible,
			Path:     pa,
		})
	}
	return &OptimizeResult{
		Circuit: s.Circuit,
		Tc:      s.Tc,
		Tmin:    s.Tmin,
		Tmax:    s.Tmax,
		Gates:   s.Gates,
		Outcome: out,
	}, nil
}
