package campaign

import (
	"fmt"
	"sort"
	"strings"

	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
)

// presets maps the six hand-written study drivers onto campaign
// manifests — the ROADMAP routing rule made concrete: grid-shaped
// experiment work is a config file, not a new driver. Axis values come
// from the drivers' own exported defaults, so a preset campaign prices
// the same grid the corresponding figure does.
var presets = map[string]func() Manifest{
	// Fig. 4: sequential-fraction sweep, scenarios 1/3/5, all platforms.
	"sweep-alpha": func() Manifest {
		return Manifest{
			Name:   "sweep-alpha",
			Axis:   AxisAlpha,
			Values: experiments.DefaultFig4Alphas(),
		}
	},
	// Figs. 5–6: error-rate sweep.
	"sweep-lambda": func() Manifest {
		return Manifest{
			Name:   "sweep-lambda",
			Axis:   AxisLambda,
			Values: experiments.DefaultLambdas(),
		}
	},
	// Fig. 7: downtime sweep.
	"sweep-downtime": func() Manifest {
		return Manifest{
			Name:   "sweep-downtime",
			Axis:   AxisDowntime,
			Values: experiments.DefaultFig7Downtimes(),
		}
	},
	// Robustness study: Weibull shape axis, all six scenarios, machine-
	// level pricing of the exponential-optimal patterns.
	"robustness": func() Manifest {
		return Manifest{
			Name:      "robustness",
			Platforms: []string{"Hera"},
			Scenarios: []int{1, 2, 3, 4, 5, 6},
			Dist:      "weibull",
			Axis:      AxisShape,
			Values:    experiments.DefaultRobustnessShapes,
		}
	},
	// Multilevel study: in-memory cost-fraction axis, joint (T, K, P)
	// optima.
	"multilevel": func() Manifest {
		return Manifest{
			Name:      "multilevel",
			Platforms: []string{"Hera"},
			Protocol:  ProtocolMultilevel,
			Axis:      AxisFraction,
			Values:    experiments.DefaultMultilevelFractions,
		}
	},
	// Heterogeneous study: Hera CPU tiles plus a faster low-reliability
	// accelerator group, comm-coefficient axis, joint per-group optima.
	"hetero": func() Manifest {
		tp := experiments.HeteroStudyTopology(platform.Hera(), 0, 0.25)
		return Manifest{
			Name:     "hetero",
			Topology: &tp,
			Protocol: ProtocolHetero,
			Axis:     AxisComm,
			Values:   experiments.DefaultHeteroComms,
		}
	},
	// A deliberately tiny grid for CI smoke and the kill-and-resume
	// proof: small Monte-Carlo budget, one platform, two chains.
	"smoke": func() Manifest {
		return Manifest{
			Name:      "smoke",
			Runs:      10,
			Patterns:  20,
			Platforms: []string{"Hera"},
			Scenarios: []int{1, 3},
			Axis:      AxisAlpha,
			Values:    []float64{0.05, 0.1, 0.2},
		}
	},
}

// PresetNames lists the built-in campaign presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named built-in manifest, validated.
func Preset(name string) (Manifest, error) {
	build, ok := presets[strings.ToLower(name)]
	if !ok {
		return Manifest{}, fmt.Errorf("campaign: unknown preset %q (built-ins: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	m := build()
	if err := m.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("campaign: preset %q: %w", name, err)
	}
	return m, nil
}
