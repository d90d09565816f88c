package fibbing

import (
	"encoding/json"
	"io"
	"sort"

	"github.com/coyote-te/coyote/internal/graph"
)

// Message is the wire-friendly form of one fake-node LSA, the "OSPF
// messages" output of the COYOTE architecture (Fig. 5 of the paper). The
// encoding is JSON rather than RFC 2328 binary: the Fibbing controller
// this models speaks to routers through its own LSA-injection channel, and
// JSON keeps the artifacts inspectable.
type Message struct {
	Name     string  `json:"name"`
	Dest     string  `json:"destination"`
	Attached string  `json:"attached_router"`
	MapsTo   string  `json:"forwarding_adjacency"`
	CostUp   float64 `json:"cost_to_fake"`
	CostDown float64 `json:"cost_fake_to_dest"`
}

// Messages flattens the synthesized lie set into deterministic (sorted)
// wire messages, with router names resolved against the graph the lies were
// synthesized over.
func (s *Synthesis) Messages() []Message {
	g := s.LSDB.G
	var out []Message
	dests := make([]graph.NodeID, 0, len(s.LSDB.Fakes))
	for d := range s.LSDB.Fakes {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, d := range dests {
		lo := len(out)
		for _, f := range s.LSDB.Fakes[d] {
			out = append(out, Message{
				Name:     f.Name(),
				Dest:     g.Name(f.Dest),
				Attached: g.Name(f.Attached),
				MapsTo:   g.Name(f.MapsTo),
				CostUp:   f.CostUp,
				CostDown: f.CostDown,
			})
		}
		dm := out[lo:]
		sort.Slice(dm, func(i, j int) bool { return dm[i].Name < dm[j].Name })
	}
	return out
}

// WriteJSON emits the message stream as indented JSON.
func (s *Synthesis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Messages())
}
