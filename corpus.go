package coyote

import (
	"io"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// TopologyNames lists the built-in topology corpus (synthetic stand-ins
// for the Internet Topology Zoo backbones of the paper's evaluation; see
// DESIGN.md).
func TopologyNames() []string { return topo.Names() }

// LoadTopology builds a corpus topology by name.
func LoadTopology(name string) (*Topology, error) {
	g, err := topo.Load(name)
	if err != nil {
		return nil, err
	}
	return &Topology{g: g}, nil
}

// NewDemandMatrix returns an all-zero demand matrix sized for t.
func NewDemandMatrix(t *Topology) *DemandMatrix {
	return demand.NewMatrix(t.g.NumNodes())
}

// WriteText serializes the topology in the line-oriented text format
// (node/link/edge directives) that ReadTopologyAuto and ReadTopologyFile
// read back.
func (t *Topology) WriteText(w io.Writer) error { return t.g.WriteText(w) }

// WriteDOT emits a Graphviz rendering of the topology.
func (t *Topology) WriteDOT(w io.Writer) error { return t.g.WriteDOT(w) }

// ReadTopologyAuto parses a topology whose format is detected from the
// content: GraphML (XML), SNDlib native, or the line-oriented text format.
func ReadTopologyAuto(r io.Reader) (*Topology, error) {
	g, err := scen.ReadAuto(r)
	if err != nil {
		return nil, err
	}
	return &Topology{g: g}, nil
}

// ReadTopologyFile loads a topology from a file, picking the parser from
// the extension (.graphml/.gml/.xml, .snd/.sndlib/.native, else text
// format) with content sniffing as the fallback for unknown extensions.
func ReadTopologyFile(path string) (*Topology, error) {
	g, err := scen.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Topology{g: g}, nil
}
