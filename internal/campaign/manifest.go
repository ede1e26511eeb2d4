package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
)

// Protocol names the resilience protocol a cell runs.
const (
	// ProtocolSingle is the paper's single-level PATTERN(T, P).
	ProtocolSingle = "single"
	// ProtocolMultilevel is the Section V two-level PATTERN(T, K, P).
	ProtocolMultilevel = "multilevel"
	// ProtocolHetero is the heterogeneous joint optimum over a topology
	// of groups: active set, work split and per-group patterns.
	ProtocolHetero = "hetero"
)

// Axis names for Manifest.Axis.
const (
	AxisNone     = ""
	AxisAlpha    = "alpha"
	AxisLambda   = "lambda"
	AxisDowntime = "downtime"
	AxisShape    = "shape"
	AxisFraction = "frac"
	// AxisComm sweeps the topology's inter-group communication
	// coefficient κ; it requires the hetero protocol.
	AxisComm = "comm"
)

// DistSpec selects a failure law for the Monte-Carlo phase. Shapes is
// the shape grid (Weibull/Gamma k, log-normal σ); the exponential law is
// shapeless and must leave Shapes empty. Non-exponential laws price the
// exponential-optimal pattern under the true law on the machine-level
// simulator, exactly like the robustness study.
type DistSpec struct {
	Name   string    `json:"name"`
	Shapes []float64 `json:"shapes,omitempty"`
}

// ProtocolSpec selects a protocol for the solve + pricing phases.
// InMemFractions is the C1/C2 grid for the multilevel protocol (ignored
// and rejected for single-level).
type ProtocolSpec struct {
	Name           string    `json:"name"`
	InMemFractions []float64 `json:"in_mem_fractions,omitempty"`
}

// Manifest is the declarative campaign specification: the full grid is
// Platforms × Scenarios × Distributions(shape) × Protocols(fraction) ×
// Axis values. Cells that differ only in the axis coordinate form one
// warm-start solver chain, in axis order.
type Manifest struct {
	// Name labels the campaign in reports and journals.
	Name string `json:"name"`
	// Seed is the master seed; per-cell seeds derive from it and the
	// cell's canonical identity, so adding or reordering grid dimensions
	// never changes another cell's stream.
	Seed uint64 `json:"seed"`
	// Runs and Patterns set the Monte-Carlo budget per cell (defaults
	// 500 × 500, the paper's choice).
	Runs     int `json:"runs,omitempty"`
	Patterns int `json:"patterns,omitempty"`
	// Platforms names Table II platforms (default all four).
	Platforms []string `json:"platforms,omitempty"`
	// Scenarios lists Table III scenarios 1-6 (default 1, 3, 5 — the
	// sweep-figure subset).
	Scenarios []int `json:"scenarios,omitempty"`
	// Alpha and Downtime are the fixed model parameters (defaults 0.1
	// and 3600 s) unless swept by Axis. An explicit zero sticks: the
	// manifest is a file, absence is representable.
	Alpha    *float64 `json:"alpha,omitempty"`
	Downtime *float64 `json:"downtime,omitempty"`
	// Distributions lists the failure laws to price under (default the
	// exponential law the patterns are optimized for).
	Distributions []DistSpec `json:"distributions,omitempty"`
	// Protocols lists the protocols to solve (default single-level).
	Protocols []ProtocolSpec `json:"protocols,omitempty"`
	// Topology is the heterogeneous platform the hetero protocol solves;
	// required by (and only meaningful with) that protocol. The topology
	// replaces the Platforms dimension: group membership is explicit, the
	// axis can sweep the comm coefficient.
	Topology *platform.Topology `json:"topology,omitempty"`
	// Axis names the swept parameter ("alpha", "lambda", "downtime",
	// "shape", "frac", "comm" or empty for a pure grid) and Values its
	// coordinates in sweep order.
	Axis   string    `json:"axis,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// ColdSolve disables warm-starting: every cell pays the full grid
	// scan (bit-identical to per-cell OptimalPattern, like the
	// amdahl-exp -warm=false escape hatch).
	ColdSolve bool `json:"cold_solve,omitempty"`
}

func (m Manifest) alpha() float64 {
	if m.Alpha != nil {
		return *m.Alpha
	}
	return experiments.DefaultAlpha
}

func (m Manifest) downtime() float64 {
	if m.Downtime != nil {
		return *m.Downtime
	}
	return experiments.DefaultDowntime
}

// heteroOnly reports whether every listed protocol is the hetero
// protocol (the only shape a topology-bearing manifest may take).
func (m Manifest) heteroOnly() bool {
	if len(m.Protocols) == 0 {
		return false
	}
	for _, p := range m.Protocols {
		if p.Name != ProtocolHetero {
			return false
		}
	}
	return true
}

// withDefaults fills the enumerable grid dimensions.
func (m Manifest) withDefaults() Manifest {
	if m.Name == "" {
		m.Name = "campaign"
	}
	if m.Runs == 0 {
		m.Runs = 500
	}
	if m.Patterns == 0 {
		m.Patterns = 500
	}
	if len(m.Platforms) == 0 {
		switch {
		case m.heteroOnly() && m.Topology != nil:
			// The topology replaces the platform dimension: one pseudo
			// platform named after it, never looked up.
			m.Platforms = []string{m.Topology.Name}
		default:
			for _, pl := range platform.All() {
				m.Platforms = append(m.Platforms, pl.Name)
			}
		}
	}
	if len(m.Scenarios) == 0 {
		m.Scenarios = []int{1, 3, 5}
	}
	if len(m.Distributions) == 0 {
		m.Distributions = []DistSpec{{Name: "exponential"}}
	}
	if len(m.Protocols) == 0 {
		m.Protocols = []ProtocolSpec{{Name: ProtocolSingle}}
	}
	return m
}

// Validate rejects manifests that could not expand into a well-formed
// grid. It is called by Plan; exported so CLI surfaces can fail before
// touching the output directory.
func (m Manifest) Validate() error {
	m = m.withDefaults()
	if m.Runs < 1 || m.Patterns < 1 {
		return fmt.Errorf("campaign: runs and patterns must be positive, got %d×%d", m.Runs, m.Patterns)
	}
	heteroSeen := false
	for _, p := range m.Protocols {
		if p.Name == ProtocolHetero {
			heteroSeen = true
		}
	}
	if heteroSeen {
		if !m.heteroOnly() {
			return fmt.Errorf("campaign: the hetero protocol cannot mix with other protocols in one manifest")
		}
		if m.Topology == nil {
			return fmt.Errorf("campaign: the hetero protocol needs a topology")
		}
		if err := m.Topology.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if len(m.Platforms) > 1 {
			return fmt.Errorf("campaign: the hetero protocol replaces the platform dimension (got %d platforms)", len(m.Platforms))
		}
	} else {
		if m.Topology != nil {
			return fmt.Errorf("campaign: a topology has no effect without the hetero protocol")
		}
		for _, name := range m.Platforms {
			if _, err := platform.Lookup(name); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
	}
	for _, sc := range m.Scenarios {
		if !costmodel.Scenario(sc).Valid() {
			return fmt.Errorf("campaign: scenario %d outside 1-6", sc)
		}
	}
	for _, d := range m.Distributions {
		if failures.IsExponentialName(d.Name) {
			if len(d.Shapes) > 0 {
				return fmt.Errorf("campaign: the exponential law is shapeless; drop shapes %v", d.Shapes)
			}
			continue
		}
		shapes := d.Shapes
		if m.Axis == AxisShape {
			shapes = m.Values
		}
		if len(shapes) == 0 {
			return fmt.Errorf("campaign: distribution %q needs shapes (or the shape axis)", d.Name)
		}
		for _, s := range shapes {
			if _, err := failures.ParseDistribution(d.Name, s, 1e-9); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
	}
	multilevelSeen := false
	for _, p := range m.Protocols {
		switch p.Name {
		case ProtocolSingle:
			if len(p.InMemFractions) > 0 {
				return fmt.Errorf("campaign: in_mem_fractions have no effect on the single-level protocol")
			}
		case ProtocolMultilevel:
			multilevelSeen = true
			fracs := p.InMemFractions
			if m.Axis == AxisFraction {
				fracs = m.Values
			}
			if len(fracs) == 0 {
				return fmt.Errorf("campaign: the multilevel protocol needs in_mem_fractions (or the frac axis)")
			}
			for _, f := range fracs {
				if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
					return fmt.Errorf("campaign: in-memory fraction %g outside [0, 1]", f)
				}
			}
		case ProtocolHetero:
			if len(p.InMemFractions) > 0 {
				return fmt.Errorf("campaign: in_mem_fractions have no effect on the hetero protocol")
			}
		default:
			return fmt.Errorf("campaign: unknown protocol %q (want %s, %s or %s)", p.Name, ProtocolSingle, ProtocolMultilevel, ProtocolHetero)
		}
	}
	if heteroSeen {
		switch m.Axis {
		case AxisNone, AxisComm, AxisAlpha, AxisDowntime:
		default:
			return fmt.Errorf("campaign: the hetero protocol supports the comm, alpha and downtime axes (got %q)", m.Axis)
		}
		// The heterogeneous simulator is pattern-level only: no machine
		// mode, hence no non-exponential pricing.
		for _, d := range m.Distributions {
			if !failures.IsExponentialName(d.Name) {
				return fmt.Errorf("campaign: the hetero protocol supports only exponential failures (got %q)", d.Name)
			}
		}
	}
	switch m.Axis {
	case AxisNone:
		if len(m.Values) > 0 {
			return fmt.Errorf("campaign: axis values without an axis name")
		}
	case AxisAlpha, AxisLambda, AxisDowntime, AxisShape, AxisFraction, AxisComm:
		if len(m.Values) == 0 {
			return fmt.Errorf("campaign: axis %q needs values", m.Axis)
		}
		for i, v := range m.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("campaign: axis value %d is not finite", i)
			}
			if m.Axis == AxisLambda && !(v > 0) {
				return fmt.Errorf("campaign: lambda axis value %g must be positive", v)
			}
			if m.Axis == AxisComm && v < 0 {
				return fmt.Errorf("campaign: comm axis value %g must be non-negative", v)
			}
		}
		if m.Axis == AxisComm {
			if !heteroSeen {
				return fmt.Errorf("campaign: the comm axis needs the hetero protocol")
			}
			if m.Topology != nil && m.Topology.Comm != 0 {
				return fmt.Errorf("campaign: comm is both fixed in the topology and the axis")
			}
		}
		if m.Axis == AxisAlpha && m.Alpha != nil {
			return fmt.Errorf("campaign: alpha is both fixed and the axis")
		}
		if m.Axis == AxisDowntime && m.Downtime != nil {
			return fmt.Errorf("campaign: downtime is both fixed and the axis")
		}
		if m.Axis == AxisFraction {
			if !multilevelSeen {
				return fmt.Errorf("campaign: the frac axis needs the multilevel protocol")
			}
			for _, p := range m.Protocols {
				if p.Name != ProtocolMultilevel {
					return fmt.Errorf("campaign: the frac axis requires every protocol to be multilevel (got %q)", p.Name)
				}
				if len(p.InMemFractions) > 0 {
					return fmt.Errorf("campaign: protocol %q has both fixed in_mem_fractions and the frac axis", p.Name)
				}
			}
		}
		if m.Axis == AxisShape {
			for _, d := range m.Distributions {
				if failures.IsExponentialName(d.Name) {
					return fmt.Errorf("campaign: the shape axis cannot include the shapeless exponential law")
				}
				if len(d.Shapes) > 0 {
					return fmt.Errorf("campaign: distribution %q has both fixed shapes and the shape axis", d.Name)
				}
			}
		}
	default:
		return fmt.Errorf("campaign: unknown axis %q (want alpha, lambda, downtime, shape, frac or comm)", m.Axis)
	}
	if m.Axis != AxisShape {
		// Non-exponential laws need the machine-level simulator; the
		// two-level simulator has no such path. Reject the combination at
		// manifest level rather than per cell.
		for _, p := range m.Protocols {
			if p.Name != ProtocolMultilevel {
				continue
			}
			for _, d := range m.Distributions {
				if !failures.IsExponentialName(d.Name) {
					return fmt.Errorf("campaign: the multilevel protocol supports only exponential failures (got %q)", d.Name)
				}
			}
		}
	} else {
		for _, p := range m.Protocols {
			if p.Name == ProtocolMultilevel {
				return fmt.Errorf("campaign: the multilevel protocol supports only exponential failures (shape axis present)")
			}
		}
	}
	return nil
}

// ReadManifest decodes and validates a manifest from JSON.
func ReadManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// MarshalCanonical renders the manifest as deterministic, indented JSON —
// the bytes stored in the output directory and compared on resume.
func (m Manifest) MarshalCanonical() ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return append(buf, '\n'), nil
}
