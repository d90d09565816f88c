package fibbing

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/ospf"
)

// LSA diffing: when the online controller recomputes a configuration, the
// routers should not be asked to flush and re-learn the whole lie set —
// only the LSAs that actually changed. A lie is identified by what it is:
// (destination, lied-to router, forwarding adjacency, replica). Diff
// matches two lie sets on that identity, VerifyDiff proves the diff by
// replaying it onto the previous lie set, and Churn (the number of LSAs
// touched) is the reconfiguration cost metric the operational literature
// cares about.

// LSADiff is the minimal set of fake-node LSAs that must be injected,
// withdrawn, or re-advertised to move a network from one synthesized lie
// configuration to another. Each list is in identity order: destination,
// lied-to router, forwarding adjacency, replica.
type LSADiff struct {
	// Add lists LSAs present only in the next synthesis.
	Add []ospf.FakeNode
	// Remove lists LSAs present only in the previous synthesis.
	Remove []ospf.FakeNode
	// Update lists LSAs present in both whose advertised costs changed;
	// entries carry the next values.
	Update []ospf.FakeNode
}

// Churn is the number of LSAs touched: additions + withdrawals + updates.
// This is the reconfiguration cost of moving between the two lie sets.
func (d *LSADiff) Churn() int { return len(d.Add) + len(d.Remove) + len(d.Update) }

// cmpLie orders lies by identity.
func cmpLie(a, b ospf.FakeNode) int {
	switch {
	case a.Dest != b.Dest:
		return cmp.Compare(a.Dest, b.Dest)
	case a.Attached != b.Attached:
		return cmp.Compare(a.Attached, b.Attached)
	case a.MapsTo != b.MapsTo:
		return cmp.Compare(a.MapsTo, b.MapsTo)
	}
	return cmp.Compare(a.Replica, b.Replica)
}

// lies copies s's lie set into one slice in identity order. A nil
// synthesis is the empty lie set (the state before any synthesis was
// applied).
func lies(s *Synthesis) []ospf.FakeNode {
	if s == nil {
		return nil
	}
	db := s.LSDB
	out := make([]ospf.FakeNode, 0, db.NumFakeNodes())
	for t := range db.G.NumNodes() {
		lo := len(out)
		out = append(out, db.Fakes[graph.NodeID(t)]...)
		slices.SortFunc(out[lo:], cmpLie)
	}
	return out
}

// Diff computes the minimal add/remove/update LSA set transforming prev's
// lie configuration into next's. Either synthesis may be nil (treated as
// the empty lie set, so Diff(nil, s) is the full injection of s).
func Diff(prev, next *Synthesis) *LSADiff {
	p, n := lies(prev), lies(next)
	// Removals and additions are compacted into the fronts of p and n,
	// which the merge has already read past.
	d := &LSADiff{Remove: p[:0], Add: n[:0]}
	i, j := 0, 0
	for i < len(p) || j < len(n) {
		switch {
		case j == len(n) || i < len(p) && cmpLie(p[i], n[j]) < 0:
			d.Remove = append(d.Remove, p[i])
			i++
		case i == len(p) || cmpLie(p[i], n[j]) > 0:
			d.Add = append(d.Add, n[j])
			j++
		default:
			if p[i] != n[j] {
				d.Update = append(d.Update, n[j])
			}
			i, j = i+1, j+1
		}
	}
	return d
}

// VerifyDiff proves that prev ⊕ d is next's lie set: it replays d onto
// prev's lies — withdrawals, then re-advertisements, then injections — and
// checks that the result equals next's lies exactly, costs included.
// Withdrawing or re-advertising an absent lie is an error, and so is
// injecting a present one. For a next that Realize has verified against a
// routing, this is the proof that shipping d realizes that routing.
func VerifyDiff(prev, next *Synthesis, d *LSADiff) error {
	have, want := lies(prev), lies(next)
	// gone[i] marks have[i] withdrawn; added[j] marks want[j] injected.
	done := make([]bool, len(have)+len(want))
	gone, added := done[:len(have)], done[len(have):]
	find := func(f ospf.FakeNode) (int, bool) {
		i, ok := slices.BinarySearchFunc(have, f, cmpLie)
		return i, ok && !gone[i]
	}
	for _, f := range d.Remove {
		i, ok := find(f)
		if !ok {
			return fmt.Errorf("fibbing: diff removes absent LSA %s", f.Name())
		}
		gone[i] = true
	}
	for _, f := range d.Update {
		i, ok := find(f)
		if !ok {
			return fmt.Errorf("fibbing: diff updates absent LSA %s", f.Name())
		}
		have[i] = f
	}
	for _, f := range d.Add {
		if _, ok := find(f); ok {
			return fmt.Errorf("fibbing: diff adds present LSA %s", f.Name())
		}
		j, ok := slices.BinarySearchFunc(want, f, cmpLie)
		switch {
		case !ok:
			return fmt.Errorf("fibbing: diff adds LSA %s that the next lie set lacks", f.Name())
		case added[j]:
			return fmt.Errorf("fibbing: diff adds LSA %s twice", f.Name())
		case want[j] != f:
			return fmt.Errorf("fibbing: diff adds LSA %s at other costs than the next lie set", f.Name())
		}
		added[j] = true
	}
	// What is left of prev's lies must be the rest of next's, in order.
	j := 0
	for i, f := range have {
		if gone[i] {
			continue
		}
		for j < len(want) && added[j] {
			j++
		}
		switch {
		case j == len(want) || cmpLie(f, want[j]) < 0:
			return fmt.Errorf("fibbing: diff leaves LSA %s that the next lie set lacks", f.Name())
		case cmpLie(f, want[j]) > 0:
			return fmt.Errorf("fibbing: diff misses LSA %s of the next lie set", want[j].Name())
		case f != want[j]:
			return fmt.Errorf("fibbing: diff leaves LSA %s at other costs than the next lie set", f.Name())
		}
		j++
	}
	for ; j < len(want); j++ {
		if !added[j] {
			return fmt.Errorf("fibbing: diff misses LSA %s of the next lie set", want[j].Name())
		}
	}
	return nil
}
