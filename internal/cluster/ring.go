// Package cluster provides the static-membership primitives floptd's
// cluster mode is built from: a roster of named nodes, a consistent-hash
// ring with replicated virtual nodes mapping layout IDs to owners, a
// gossiped per-node load table, and a per-peer consecutive-failure
// circuit breaker. Everything is stdlib-only and deterministic — the
// ring's ownership function depends only on the roster, so every node
// computes the same owner for every key without coordination.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"
)

// Node is one roster entry: a stable ID and the base URL peers reach it
// at.
type Node struct {
	ID  string
	URL string
}

// ParseRoster parses a static membership spec of comma-separated id=url
// pairs ("a=http://10.0.0.1:8080,b=http://10.0.0.2:8080"). IDs must be
// unique and free of the characters the job-ID scheme reserves ('-',
// '=', ',', whitespace); URLs must be absolute http(s). The returned
// roster preserves spec order.
func ParseRoster(spec string) ([]Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty roster")
	}
	seen := map[string]bool{}
	var nodes []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: roster entry %q is not id=url", part)
		}
		id = strings.TrimSpace(id)
		if id == "" || strings.ContainsAny(id, "-=, \t") {
			return nil, fmt.Errorf("cluster: invalid node ID %q (need non-empty, no '-', '=', ',' or whitespace)", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", id)
		}
		seen[id] = true
		u, err := url.Parse(strings.TrimSpace(rawURL))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q has invalid URL %q (need absolute http(s))", id, rawURL)
		}
		nodes = append(nodes, Node{ID: id, URL: strings.TrimRight(u.String(), "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty roster")
	}
	return nodes, nil
}

// DefaultVNodes is the virtual-node replication factor: enough points
// that a three-node roster's shares land within a few percent of 1/3,
// cheap enough that ring construction stays microseconds.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over node IDs. Each node contributes
// DefaultVNodes points hashed from "id#k"; a key is owned by the node
// whose point is the first at or clockwise after the key's hash.
// Ownership is a pure function of the sorted roster, so all cluster
// members agree without talking to each other, and adding or removing a
// node moves only the keys adjacent to its points (~1/n of the space).
type Ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // sorted roster
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 maps a string to a point on the ring: the first 8 bytes of its
// SHA-256, the same stable primitive the content-addressed layout IDs
// use — no seed, no process-dependent state.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring for the given node IDs. An empty ID set is
// allowed (Owner then returns "").
func NewRing(ids []string) *Ring {
	r := &Ring{ids: append([]string(nil), ids...)}
	sort.Strings(r.ids)
	r.points = make([]ringPoint, 0, len(r.ids)*DefaultVNodes)
	for _, id := range r.ids {
		for k := 0; k < DefaultVNodes; k++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, k)), node: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // full determinism on (vanishingly rare) hash ties
	})
	return r
}

// Owner returns the node owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node
}

// Share returns the fraction of the 64-bit hash space id owns — the arc
// length preceding each of its points. Shares over the roster sum to 1.
func (r *Ring) Share(id string) float64 {
	if len(r.points) == 0 {
		return 0
	}
	// Accumulate in float64: a single-node ring owns the entire 2^64
	// space, which a uint64 sum would wrap to zero.
	var owned float64
	prev := r.points[len(r.points)-1].hash // arc wraps from the last point
	wrap := float64(^uint64(0)-prev) + float64(r.points[0].hash) + 1
	for i, pt := range r.points {
		var arc float64
		if i == 0 {
			arc = wrap
		} else {
			arc = float64(pt.hash - prev)
		}
		if pt.node == id {
			owned += arc
		}
		prev = pt.hash
	}
	return owned / math.Exp2(64)
}

// Nodes returns the sorted roster IDs the ring was built over.
func (r *Ring) Nodes() []string { return append([]string(nil), r.ids...) }
