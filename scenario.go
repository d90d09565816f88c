package coyote

import "github.com/coyote-te/coyote/internal/scen"

// This file is the public face of the scenario engine (internal/scen):
// parametric topology generators and demand workload models beyond
// gravity/bimodal. cmd/coyote-scen drives the same engine from the command
// line.

// GenParams parameterizes a topology generator: node count, seed, and the
// generator-specific knobs (Waxman α/β, Barabási–Albert M, fat-tree K,
// grid Rows/Cols/Wrap, capacity classes). The zero value is valid; Seed
// defaults to 0 and every generator is deterministic in (name, GenParams).
type GenParams = scen.Params

// GeneratorInfo describes one registered topology generator.
type GeneratorInfo struct {
	Name string // the -gen name (e.g. "waxman")
	Desc string // one-line description of shape and knobs
}

// ScenarioGenerators lists the registered topology generators, sorted by
// name.
func ScenarioGenerators() []GeneratorInfo {
	gens := scen.Describe()
	out := make([]GeneratorInfo, len(gens))
	for i, g := range gens {
		out[i] = GeneratorInfo{Name: g.Name, Desc: g.Desc}
	}
	return out
}

// GenerateTopology builds a topology with the named generator (see
// ScenarioGenerators). The result is validated and strongly connected,
// and is a pure function of (gen, p) — the same inputs always produce the
// byte-identical topology.
func GenerateTopology(gen string, p GenParams) (*Topology, error) {
	g, err := scen.Generate(gen, p)
	if err != nil {
		return nil, err
	}
	return &Topology{g: g}, nil
}

// DemandModels lists the demand-model names BuildDemands accepts:
// gravity, bimodal, hotspot, flash, uniform.
func DemandModels() []string { return scen.Models() }

// BuildDemands builds a named base demand model over a topology,
// normalized so the peak entry equals peak. The model set extends the
// paper's gravity/bimodal pair with the scenario-engine workloads
// (hotspot destinations, flash crowds, uniform all-pairs).
func BuildDemands(t *Topology, model string, peak float64, seed int64) (*DemandMatrix, error) {
	return scen.BaseMatrix(t.g, model, peak, seed)
}
