package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The text codec serializes a graph in a minimal line-oriented format:
//
//	node <name>
//	link <from> <to> <capacity> <weight>     # bidirectional
//	edge <from> <to> <capacity> <weight>     # directed
//
// Blank lines and lines starting with '#' are ignored. The format exists so
// that topologies can be stored as testdata and exported by cmd/coyote-scen.

// WriteText serializes g to w in the text format.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range g.names {
		fmt.Fprintf(bw, "node %s\n", name)
	}
	done := make(map[EdgeID]bool)
	for _, e := range g.edges {
		if done[e.ID] {
			continue
		}
		if e.Reverse >= 0 {
			r := g.edges[e.Reverse]
			if r.Capacity == e.Capacity && r.Weight == e.Weight {
				fmt.Fprintf(bw, "link %s %s %g %g\n", g.names[e.From], g.names[e.To], e.Capacity, e.Weight)
				done[e.ID], done[e.Reverse] = true, true
				continue
			}
		}
		fmt.Fprintf(bw, "edge %s %s %g %g\n", g.names[e.From], g.names[e.To], e.Capacity, e.Weight)
		done[e.ID] = true
	}
	return bw.Flush()
}

// ReadText parses a graph in the text format.
func ReadText(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: node wants 1 arg", lineno)
			}
			g.AddNode(fields[1])
		case "link", "edge":
			if len(fields) != 5 {
				return nil, fmt.Errorf("graph: line %d: %s wants 4 args", lineno, fields[0])
			}
			from, ok := g.NodeByName(fields[1])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: unknown node %q", lineno, fields[1])
			}
			to, ok := g.NodeByName(fields[2])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: unknown node %q", lineno, fields[2])
			}
			if from == to {
				return nil, fmt.Errorf("graph: line %d: self-loop at %q", lineno, fields[1])
			}
			capacity, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad capacity: %v", lineno, err)
			}
			weight, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineno, err)
			}
			// Reject non-positive, NaN and infinite values here so malformed
			// input surfaces as an error instead of an AddEdge panic.
			if !(capacity > 0) || math.IsInf(capacity, 1) {
				return nil, fmt.Errorf("graph: line %d: capacity must be positive and finite, got %q", lineno, fields[3])
			}
			if !(weight > 0) || math.IsInf(weight, 1) {
				return nil, fmt.Errorf("graph: line %d: weight must be positive and finite, got %q", lineno, fields[4])
			}
			if fields[0] == "link" {
				g.AddLink(from, to, capacity, weight)
			} else {
				g.AddEdge(from, to, capacity, weight)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteDOT emits a Graphviz representation, collapsing bidirectional links
// into undirected edges labelled "capacity/weight".
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	type key struct{ a, b NodeID }
	seen := make(map[key]bool)
	edges := append([]Edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].ID < edges[j].ID })
	for _, e := range edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		k := key{a, b}
		if seen[k] && e.Reverse >= 0 {
			continue
		}
		seen[k] = true
		fmt.Fprintf(bw, "  %q -- %q [label=\"%g/%g\"];\n", g.names[e.From], g.names[e.To], e.Capacity, e.Weight)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
