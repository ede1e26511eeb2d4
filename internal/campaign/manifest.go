package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
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

// Manifest is the declarative campaign specification: one protocol
// under one failure law, over the grid Platforms × Scenarios × Axis
// values. Cells that differ only in the axis coordinate form one
// warm-start solver chain, in axis order. A study that compares
// protocols or laws runs one manifest per protocol and law. The
// protocol and the law are four scalar fields, for example
//
//	{"protocol": "multilevel", "in_mem_fraction": 0.1}
//	{"dist": "weibull", "shape": 0.7}
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
	// Protocol names the protocol every cell solves and prices:
	// "single" (the default), "multilevel" or "hetero".
	Protocol string `json:"protocol,omitempty"`
	// InMemFraction prices the multilevel protocol's in-memory level at
	// frac·C_P (an explicit zero sticks). The multilevel protocol needs
	// it unless the frac axis sweeps it; the others reject it.
	InMemFraction *float64 `json:"in_mem_fraction,omitempty"`
	// Dist names the failure law the Monte-Carlo phase prices under
	// (default the exponential law the patterns are optimized for).
	// Non-exponential laws price the exponential-optimal pattern under
	// the true law on the machine-level simulator, exactly like the
	// robustness study.
	Dist string `json:"dist,omitempty"`
	// Shape is the non-exponential law's shape (Weibull/Gamma k,
	// log-normal σ), needed unless the shape axis sweeps it; the
	// exponential law is shapeless and rejects it.
	Shape float64 `json:"shape,omitempty"`
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
	// amdahl-exp figure and study cells).
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

// withDefaults fills the protocol, the law and the enumerable grid
// dimensions.
func (m Manifest) withDefaults() Manifest {
	if m.Name == "" {
		m.Name = "campaign"
	}
	d := sim.RunConfig{Runs: m.Runs, Patterns: m.Patterns}.WithDefaults()
	m.Runs, m.Patterns = d.Runs, d.Patterns
	if m.Protocol == "" {
		m.Protocol = ProtocolSingle
	}
	if failures.IsExponentialName(m.Dist) {
		m.Dist = "exponential"
	}
	if len(m.Platforms) == 0 {
		switch {
		case m.Protocol == ProtocolHetero && m.Topology != nil:
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
	switch m.Protocol {
	case ProtocolHetero:
		if m.Topology == nil {
			return fmt.Errorf("campaign: the hetero protocol needs a topology")
		}
		if err := m.Topology.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if len(m.Platforms) > 1 {
			return fmt.Errorf("campaign: the hetero protocol replaces the platform dimension (got %d platforms)", len(m.Platforms))
		}
	case ProtocolSingle, ProtocolMultilevel:
		if m.Topology != nil {
			return fmt.Errorf("campaign: a topology has no effect without the hetero protocol")
		}
		for _, name := range m.Platforms {
			if _, err := platform.Lookup(name); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
	default:
		return fmt.Errorf("campaign: unknown protocol %q (want %s, %s or %s)", m.Protocol, ProtocolSingle, ProtocolMultilevel, ProtocolHetero)
	}
	for _, sc := range m.Scenarios {
		if !costmodel.Scenario(sc).Valid() {
			return fmt.Errorf("campaign: scenario %d outside 1-6", sc)
		}
	}

	// The failure law. Non-exponential laws need the machine-level
	// simulator, which only the single-level protocol has.
	if m.Dist == "exponential" {
		if m.Shape != 0 {
			return fmt.Errorf("campaign: the exponential law is shapeless; drop shape %g", m.Shape)
		}
	} else {
		if m.Protocol != ProtocolSingle {
			return fmt.Errorf("campaign: the %s protocol supports only exponential failures (got %q)", m.Protocol, m.Dist)
		}
		shapes := []float64{m.Shape}
		switch {
		case m.Axis == AxisShape && m.Shape != 0:
			return fmt.Errorf("campaign: shape is both fixed and the axis")
		case m.Axis == AxisShape:
			shapes = m.Values
		case m.Shape == 0:
			return fmt.Errorf("campaign: distribution %q needs a shape (or the shape axis)", m.Dist)
		}
		for _, s := range shapes {
			if _, err := failures.ParseDistribution(m.Dist, s, 1e-9); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
	}

	// The in-memory fraction.
	if m.Protocol == ProtocolMultilevel {
		fracs := m.Values
		switch {
		case m.Axis == AxisFraction && m.InMemFraction != nil:
			return fmt.Errorf("campaign: in_mem_fraction is both fixed and the axis")
		case m.Axis != AxisFraction && m.InMemFraction == nil:
			return fmt.Errorf("campaign: the multilevel protocol needs in_mem_fraction (or the frac axis)")
		case m.Axis != AxisFraction:
			fracs = []float64{*m.InMemFraction}
		}
		for _, f := range fracs {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
				return fmt.Errorf("campaign: in-memory fraction %g outside [0, 1]", f)
			}
		}
	} else if m.InMemFraction != nil {
		return fmt.Errorf("campaign: in_mem_fraction has no effect on the %s protocol", m.Protocol)
	}

	// The axis: known, finite, fitting the protocol and the law, and not
	// also fixed elsewhere in the manifest.
	switch m.Axis {
	case AxisNone:
		if len(m.Values) > 0 {
			return fmt.Errorf("campaign: axis values without an axis name")
		}
		return nil
	case AxisAlpha, AxisLambda, AxisDowntime, AxisShape, AxisFraction, AxisComm:
	default:
		return fmt.Errorf("campaign: unknown axis %q (want alpha, lambda, downtime, shape, frac or comm)", m.Axis)
	}
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
	switch {
	case m.Protocol == ProtocolHetero && m.Axis != AxisComm && m.Axis != AxisAlpha && m.Axis != AxisDowntime:
		return fmt.Errorf("campaign: the hetero protocol supports the comm, alpha and downtime axes (got %q)", m.Axis)
	case m.Axis == AxisComm && m.Protocol != ProtocolHetero:
		return fmt.Errorf("campaign: the comm axis needs the hetero protocol")
	case m.Axis == AxisFraction && m.Protocol != ProtocolMultilevel:
		return fmt.Errorf("campaign: the frac axis needs the multilevel protocol")
	case m.Axis == AxisShape && m.Dist == "exponential":
		return fmt.Errorf("campaign: the shape axis cannot include the shapeless exponential law")
	case m.Axis == AxisComm && m.Topology.Comm != 0:
		return fmt.Errorf("campaign: comm is both fixed in the topology and the axis")
	case m.Axis == AxisAlpha && m.Alpha != nil:
		return fmt.Errorf("campaign: alpha is both fixed and the axis")
	case m.Axis == AxisDowntime && m.Downtime != nil:
		return fmt.Errorf("campaign: downtime is both fixed and the axis")
	}
	return nil
}

// ReadManifest decodes and validates a manifest from JSON.
func ReadManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	if err := decodeOne(r, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// decodeOne decodes exactly one JSON value from r, refusing unknown
// fields: whitespace may follow the value, anything else is an error.
// (Decoder.More is not enough: it reports false before a stray '}' or
// ']'.)
func decodeOne(r io.Reader, into any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
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
