package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
)

// Cell is one planned grid point: the resolved model, the failure law it
// is priced under, the protocol, and its place in a warm-start chain.
type Cell struct {
	// ID is the stable identity: a digest of the canonical model key
	// (core.Model.CacheKey), the distribution key (failures.CacheKey),
	// the protocol coordinates and the Monte-Carlo budget. Adding,
	// removing or reordering grid dimensions never changes another
	// cell's ID — which is what lets a resumed campaign match artifacts
	// against a re-expanded plan.
	ID string
	// Chain and Index locate the cell in its warm-start solver chain.
	Chain, Index int
	// Grid coordinates, for reports and journals.
	Platform string
	Scenario costmodel.Scenario
	Alpha    float64
	Downtime float64
	// Lambda is the effective λ_ind (the platform's, or the axis value).
	Lambda   float64
	DistName string
	Shape    float64 // NaN for the shapeless exponential law
	Protocol string
	Frac     float64 // NaN for single-level
	// Comm is the effective inter-group comm coefficient (NaN unless the
	// cell runs the hetero protocol).
	Comm float64
	// X is the axis coordinate (NaN for a pure grid).
	X float64
	// Seed is the cell's deterministic Monte-Carlo seed, derived from
	// the manifest seed and the cell's canonical identity.
	Seed uint64

	// Model is the resolved exponential planning model the solve runs
	// on; Dist is nil for the exponential fast path, else the calibrated
	// law the Monte-Carlo phase prices under. Hetero cells carry the
	// compiled topology in Hetero instead (Model stays zero).
	Model  core.Model
	Hetero core.HeteroModel
	Dist   failures.Distribution
}

// Plan is the deterministic expansion of a manifest: Cells in planning
// order, grouped into warm-start chains (cells identical except for the
// axis coordinate, in axis order).
type Plan struct {
	Manifest Manifest
	Cells    []*Cell
	// Chains groups Cells by chain index; every cell appears exactly
	// once, chains are contiguous in planning order.
	Chains [][]*Cell
}

// maxPlanCells bounds the grid expansion: a manifest that multiplies out
// beyond this is almost certainly a typo, and the executor would
// otherwise happily create a million artifact files.
const maxPlanCells = 1 << 16

// Expand expands the manifest into its deterministic cell grid. The
// planning order is platforms → scenarios → distributions(shape) →
// protocols(fraction) → axis values; the innermost axis run forms one
// warm-start chain.
func Expand(manifest Manifest) (*Plan, error) {
	if err := manifest.Validate(); err != nil {
		return nil, err
	}
	m := manifest.withDefaults()
	p := &Plan{Manifest: m}

	type distInstance struct {
		name  string
		shape float64 // NaN = exponential
	}
	var dists []distInstance
	for _, d := range m.Distributions {
		switch {
		case failures.IsExponentialName(d.Name):
			dists = append(dists, distInstance{name: "exponential", shape: math.NaN()})
		case m.Axis == AxisShape:
			// One instance per axis value, materialized by the chain loop.
			dists = append(dists, distInstance{name: d.Name, shape: math.NaN()})
		default:
			for _, s := range d.Shapes {
				dists = append(dists, distInstance{name: d.Name, shape: s})
			}
		}
	}
	type protoInstance struct {
		name string
		frac float64 // NaN = single-level
	}
	var protos []protoInstance
	for _, pr := range m.Protocols {
		switch {
		case pr.Name == ProtocolSingle:
			protos = append(protos, protoInstance{name: ProtocolSingle, frac: math.NaN()})
		case pr.Name == ProtocolHetero:
			protos = append(protos, protoInstance{name: ProtocolHetero, frac: math.NaN()})
		case m.Axis == AxisFraction:
			protos = append(protos, protoInstance{name: ProtocolMultilevel, frac: math.NaN()})
		default:
			for _, f := range pr.InMemFractions {
				protos = append(protos, protoInstance{name: ProtocolMultilevel, frac: f})
			}
		}
	}
	xs := m.Values
	if m.Axis == AxisNone {
		xs = []float64{math.NaN()}
	}

	isHetero := m.heteroOnly()
	for _, plName := range m.Platforms {
		var basePl platform.Platform
		if isHetero {
			// The pseudo-platform carries only the topology's name; the
			// group parameters live in m.Topology.
			basePl.Name = plName
		} else {
			var err error
			basePl, err = platform.Lookup(plName)
			if err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
		for _, scn := range m.Scenarios {
			sc := costmodel.Scenario(scn)
			for _, di := range dists {
				for _, pi := range protos {
					chain := make([]*Cell, 0, len(xs))
					for xi, x := range xs {
						cell := &Cell{
							Chain:    len(p.Chains),
							Index:    xi,
							Platform: basePl.Name,
							Scenario: sc,
							Alpha:    m.alpha(),
							Downtime: m.downtime(),
							DistName: di.name,
							Shape:    di.shape,
							Protocol: pi.name,
							Frac:     pi.frac,
							Comm:     math.NaN(),
							X:        x,
						}
						pl := basePl
						switch m.Axis {
						case AxisAlpha:
							cell.Alpha = x
						case AxisDowntime:
							cell.Downtime = x
						case AxisLambda:
							pl = pl.WithLambda(x)
						case AxisShape:
							cell.Shape = x
						case AxisFraction:
							cell.Frac = x
						}
						var err error
						if isHetero {
							tp := *m.Topology
							if m.Axis == AxisComm {
								tp.Comm = x
							}
							cell.Comm = tp.Comm
							cell.Lambda = math.NaN()
							//lint:allow frozenloop plan-time compile, one per grid cell's distinct topology
							cell.Hetero, err = hetero.CompileTopology(tp, sc, cell.Alpha, cell.Downtime)
							if err != nil {
								return nil, fmt.Errorf("campaign: cell %s/%v/%s=%g: %w",
									cell.Platform, sc, m.Axis, x, err)
							}
						} else {
							cell.Lambda = pl.LambdaInd
							cell.Model, err = experiments.BuildModel(pl, sc, cell.Alpha, cell.Downtime)
							if err != nil {
								return nil, fmt.Errorf("campaign: cell %s/%v/%s=%g: %w",
									cell.Platform, sc, m.Axis, x, err)
							}
							if cell.DistName != "exponential" {
								cell.Dist, err = failures.ParseDistribution(cell.DistName, cell.Shape, pl.LambdaInd)
								if err != nil {
									return nil, fmt.Errorf("campaign: %w", err)
								}
							}
						}
						if err := cell.identify(m); err != nil {
							return nil, err
						}
						chain = append(chain, cell)
						p.Cells = append(p.Cells, cell)
						if len(p.Cells) > maxPlanCells {
							return nil, fmt.Errorf("campaign: grid exceeds %d cells", maxPlanCells)
						}
					}
					p.Chains = append(p.Chains, chain)
				}
			}
		}
	}
	seen := make(map[string]*Cell, len(p.Cells))
	for _, c := range p.Cells {
		if dup, ok := seen[c.ID]; ok {
			return nil, fmt.Errorf("campaign: duplicate grid cell %s (%s/%v and %s/%v price the same configuration)",
				c.ID, dup.Platform, dup.Scenario, c.Platform, c.Scenario)
		}
		seen[c.ID] = c
	}
	return p, nil
}

// identify derives the cell's stable ID and seed from the canonical
// model/distribution keys plus the protocol and budget coordinates —
// never from grid position, so IDs survive reordering and grid growth.
func (c *Cell) identify(m Manifest) error {
	var mk string
	var err error
	if len(c.Hetero.Groups) > 0 {
		mk, err = c.Hetero.CacheKey() // versioned hg1| key, disjoint from Model keys
	} else {
		mk, err = c.Model.CacheKey()
	}
	if err != nil {
		return fmt.Errorf("campaign: keying cell %s/%v: %w", c.Platform, c.Scenario, err)
	}
	material := "cell1|" + mk +
		"|dist=" + failures.CacheKey(c.Dist) +
		"|proto=" + c.Protocol +
		"|frac=" + core.FormatFloatKey(c.Frac) +
		"|budget=" + strconv.Itoa(m.Runs) + "x" + strconv.Itoa(m.Patterns) +
		"|cold=" + strconv.FormatBool(m.ColdSolve)
	sum := sha256.Sum256([]byte(material))
	c.ID = hex.EncodeToString(sum[:8])
	// The seed folds the master seed into the FNV-1a digest of the same
	// material, exactly as the experiment drivers' cellSeed does.
	c.Seed = rng.HashLabel(material) ^ m.Seed
	return nil
}

// Label is the human-readable cell coordinate used in journals and
// error messages.
func (c *Cell) Label() string {
	s := fmt.Sprintf("%s/%v/%s", c.Platform, c.Scenario, c.Protocol)
	if !math.IsNaN(c.Frac) {
		s += fmt.Sprintf("/frac=%g", c.Frac)
	}
	if c.DistName != "exponential" {
		s += fmt.Sprintf("/%s(k=%g)", c.DistName, c.Shape)
	}
	if !math.IsNaN(c.Comm) {
		s += fmt.Sprintf("/comm=%g", c.Comm)
	}
	if !math.IsNaN(c.X) {
		s += fmt.Sprintf("/x=%g", c.X)
	}
	return s
}
