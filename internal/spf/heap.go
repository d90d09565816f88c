package spf

import "github.com/coyote-te/coyote/internal/graph"

// Heap is a value-typed indexed binary min-heap of nodes keyed by distance,
// with decrease-key. It replaces the container/heap-based nodeHeap: the old
// implementation boxed one nodeItem per Push through interface{} (one heap
// allocation per edge relaxation) and held duplicate entries per node; this
// one stores plain int32/float64 arrays sized once per graph and is reused
// across runs, so a relaxation is a few array writes and sift swaps with no
// allocation at all. It is shared by the cold Dijkstra (ToDestination), the
// incremental repair queues (Incremental), and the LSDB SPF of package ospf.
//
// Keys are node IDs in [0, n); each node appears at most once. DecreaseTo
// is a no-op unless the new key is strictly smaller, so Push-style usage
// ("insert or decrease") is a single call.
type Heap struct {
	nodes []graph.NodeID // heap order
	pos   []int32        // pos[node] = index into nodes, or -1 if absent
	key   []float64      // key[node], valid while the node is queued
}

// NewHeap returns an empty heap over nodes [0, n).
func NewHeap(n int) *Heap {
	h := &Heap{
		nodes: make([]graph.NodeID, 0, n),
		pos:   make([]int32, n),
		key:   make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued nodes.
func (h *Heap) Len() int { return len(h.nodes) }

// Reset empties the heap. It is O(len) — only queued nodes are touched — so
// a mostly-idle heap (the incremental repair case) resets in O(affected).
func (h *Heap) Reset() {
	for _, v := range h.nodes {
		h.pos[v] = -1
	}
	h.nodes = h.nodes[:0]
}

// DecreaseTo inserts v with key k, or lowers its key to k if it is already
// queued with a larger one. It reports whether the heap changed.
func (h *Heap) DecreaseTo(v graph.NodeID, k float64) bool {
	if p := h.pos[v]; p >= 0 {
		if k >= h.key[v] {
			return false
		}
		h.key[v] = k
		h.up(int(p))
		return true
	}
	h.key[v] = k
	h.pos[v] = int32(len(h.nodes))
	h.nodes = append(h.nodes, v)
	h.up(len(h.nodes) - 1)
	return true
}

// Pop removes and returns the minimum-key node and its key. Ties break
// toward the smaller node ID so the pop order — and therefore any
// float-order-sensitive caller — is deterministic.
func (h *Heap) Pop() (graph.NodeID, float64) {
	v := h.nodes[0]
	k := h.key[v]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.pos[h.nodes[0]] = 0
	h.nodes = h.nodes[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, k
}

// less orders heap entries by (key, node ID).
func (h *Heap) less(a, b graph.NodeID) bool {
	ka, kb := h.key[a], h.key[b]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

func (h *Heap) up(i int) {
	v := h.nodes[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.nodes[parent]
		if !h.less(v, p) {
			break
		}
		h.nodes[i] = p
		h.pos[p] = int32(i)
		i = parent
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}

func (h *Heap) down(i int) {
	n := len(h.nodes)
	v := h.nodes[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.nodes[r], h.nodes[c]) {
			c = r
		}
		if !h.less(h.nodes[c], v) {
			break
		}
		h.nodes[i] = h.nodes[c]
		h.pos[h.nodes[i]] = int32(i)
		i = c
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}
