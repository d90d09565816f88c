package fibbing

import (
	"fmt"
	"sort"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/ospf"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// LSA diffing: when the online controller recomputes a configuration, the
// routers should not be asked to flush and re-learn the whole lie set —
// only the LSAs that actually changed. Diff computes the minimal
// add/remove/update set between two syntheses, VerifyDiff proves that
// applying the diff to the previous LSDB realizes the next quantized routing
// exactly, and Churn (the number of LSAs touched) is the reconfiguration
// cost metric the operational literature cares about.

// LSADiff is the minimal set of fake-node LSAs that must be injected,
// withdrawn, or re-advertised to move a network from one synthesized lie
// configuration to another. Fake nodes are identified by Name, which
// encodes (destination, lied-to router, forwarding adjacency, replica
// index) — the natural identity of a Fibbing LSA.
type LSADiff struct {
	// Add lists LSAs present only in the next synthesis.
	Add []ospf.FakeNode
	// Remove lists LSAs present only in the previous synthesis.
	Remove []ospf.FakeNode
	// Update lists LSAs present in both whose advertised costs (or
	// forwarding adjacency) changed; entries carry the next values.
	Update []ospf.FakeNode
}

// Churn is the number of LSAs touched: additions + withdrawals + updates.
// This is the reconfiguration cost of moving between the two lie sets.
func (d *LSADiff) Churn() int { return len(d.Add) + len(d.Remove) + len(d.Update) }

// fakesByName flattens a synthesis's lie set into a name-keyed map. A nil
// synthesis means "no lies" (the state before any synthesis was applied).
func fakesByName(s *Synthesis) map[string]ospf.FakeNode {
	out := make(map[string]ospf.FakeNode)
	if s == nil {
		return out
	}
	for _, fakes := range s.LSDB.Fakes {
		for _, f := range fakes {
			out[f.Name] = f
		}
	}
	return out
}

// sortFakes orders fake nodes deterministically (by destination, then
// name), matching the ordering of Synthesis.Messages.
func sortFakes(fs []ospf.FakeNode) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Dest != fs[j].Dest {
			return fs[i].Dest < fs[j].Dest
		}
		return fs[i].Name < fs[j].Name
	})
}

// Diff computes the minimal add/remove/update LSA set transforming prev's
// lie configuration into next's. Either synthesis may be nil (treated as
// the empty lie set, so Diff(nil, s) is the full injection of s). The
// result is deterministic: entries are sorted by destination then name.
func Diff(prev, next *Synthesis) *LSADiff {
	pm := fakesByName(prev)
	nm := fakesByName(next)
	d := &LSADiff{}
	for name, nf := range nm {
		pf, ok := pm[name]
		if !ok {
			d.Add = append(d.Add, nf)
			continue
		}
		if pf != nf {
			d.Update = append(d.Update, nf)
		}
	}
	for name, pf := range pm {
		if _, ok := nm[name]; !ok {
			d.Remove = append(d.Remove, pf)
		}
	}
	sortFakes(d.Add)
	sortFakes(d.Remove)
	sortFakes(d.Update)
	return d
}

// ApplyDiff replays a diff on top of prev's lie set and materializes the
// result as a synthesis over graph g (the topology of the *next*
// configuration — node IDs must be consistent between the two, which
// WithoutLinks-derived survivor graphs guarantee). It errors if the diff
// does not fit prev (removing or updating an LSA that is not present,
// adding one that is).
func ApplyDiff(g *graph.Graph, prev *Synthesis, d *LSADiff) (*Synthesis, error) {
	set := fakesByName(prev)
	for _, f := range d.Remove {
		if _, ok := set[f.Name]; !ok {
			return nil, fmt.Errorf("fibbing: diff removes unknown LSA %q", f.Name)
		}
		delete(set, f.Name)
	}
	for _, f := range d.Update {
		if _, ok := set[f.Name]; !ok {
			return nil, fmt.Errorf("fibbing: diff updates unknown LSA %q", f.Name)
		}
		set[f.Name] = f
	}
	for _, f := range d.Add {
		if _, ok := set[f.Name]; ok {
			return nil, fmt.Errorf("fibbing: diff adds duplicate LSA %q", f.Name)
		}
		set[f.Name] = f
	}

	db := ospf.NewLSDB(g)
	out := &Synthesis{LSDB: db}
	all := make([]ospf.FakeNode, 0, len(set))
	for _, f := range set {
		all = append(all, f)
	}
	sortFakes(all)
	lied := make(map[graph.NodeID]bool)
	for _, f := range all {
		if err := db.Inject(f); err != nil {
			return nil, err
		}
		out.FakeNodes++
		lied[f.Dest] = true
	}
	for dest := range lied {
		out.LiedDestinations = append(out.LiedDestinations, dest)
	}
	sort.Slice(out.LiedDestinations, func(i, j int) bool {
		return out.LiedDestinations[i] < out.LiedDestinations[j]
	})
	return out, nil
}

// VerifyDiff proves that prev ⊕ d realizes q: it applies the diff to prev's
// lie set over q's topology g and checks the result as Verify checks a
// synthesis. For a diff toward a synthesis already verified against q, this
// is the proof that the diff reproduces the next forwarding exactly.
func VerifyDiff(g *graph.Graph, q *wcmp.QuantizedRouting, prev *Synthesis, d *LSADiff) error {
	applied, err := ApplyDiff(g, prev, d)
	if err != nil {
		return err
	}
	return Verify(g, q, applied)
}
