// Package kg models knowledge graphs and alignment link sets.
//
// A knowledge graph is a set of (subject, predicate, object) triples over an
// entity vocabulary and a relation vocabulary. The package mirrors the data
// model of the OpenEA / EntMatcher benchmark suites: two KGs plus a set of
// gold alignment links partitioned into train / validation / test splits.
//
// Entities and relations are interned: the string URI is mapped to a dense
// integer ID on first use, and all adjacency structures are ID-based. This
// keeps the graph representation compact enough for the 100K-class datasets
// and makes entity IDs directly usable as matrix row/column indices.
package kg

import (
	"fmt"
	"sort"
)

// Triple is one (subject, predicate, object) statement, by dense IDs.
type Triple struct {
	Subject  int
	Relation int
	Object   int
}

// Edge is one directed, relation-labelled adjacency entry.
type Edge struct {
	Neighbor int  // entity ID at the other end
	Relation int  // relation ID
	Out      bool // true when the edge leaves this entity (entity is subject)
}

// Graph is a knowledge graph with interned vocabularies.
type Graph struct {
	Name string

	entityNames   []string
	entityIndex   map[string]int
	relationNames []string
	relationIndex map[string]int

	triples []Triple
	adj     [][]Edge // built lazily by Freeze
	frozen  bool
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{
		Name:          name,
		entityIndex:   make(map[string]int),
		relationIndex: make(map[string]int),
	}
}

// AddEntity interns name and returns its dense ID. Repeated calls with the
// same name return the same ID.
func (g *Graph) AddEntity(name string) int {
	if id, ok := g.entityIndex[name]; ok {
		return id
	}
	id := len(g.entityNames)
	g.entityNames = append(g.entityNames, name)
	g.entityIndex[name] = id
	g.frozen = false
	return id
}

// AddRelation interns name and returns its dense relation ID.
func (g *Graph) AddRelation(name string) int {
	if id, ok := g.relationIndex[name]; ok {
		return id
	}
	id := len(g.relationNames)
	g.relationNames = append(g.relationNames, name)
	g.relationIndex[name] = id
	return id
}

// AddTriple records a triple using already-interned IDs. It returns an error
// if any ID is out of range.
func (g *Graph) AddTriple(subject, relation, object int) error {
	n, r := len(g.entityNames), len(g.relationNames)
	if subject < 0 || subject >= n || object < 0 || object >= n {
		return fmt.Errorf("kg: entity ID out of range in triple (%d,%d,%d); have %d entities", subject, relation, object, n)
	}
	if relation < 0 || relation >= r {
		return fmt.Errorf("kg: relation ID %d out of range; have %d relations", relation, r)
	}
	g.triples = append(g.triples, Triple{subject, relation, object})
	g.frozen = false
	return nil
}

// AddTripleNames interns the three names and records the triple.
func (g *Graph) AddTripleNames(subject, relation, object string) {
	s := g.AddEntity(subject)
	r := g.AddRelation(relation)
	o := g.AddEntity(object)
	// IDs come from interning, so AddTriple cannot fail.
	if err := g.AddTriple(s, r, o); err != nil {
		panic(err)
	}
}

// NumEntities returns the entity vocabulary size.
func (g *Graph) NumEntities() int { return len(g.entityNames) }

// NumRelations returns the relation vocabulary size.
func (g *Graph) NumRelations() int { return len(g.relationNames) }

// NumTriples returns the triple count.
func (g *Graph) NumTriples() int { return len(g.triples) }

// Triples returns the triple list. Callers must not mutate it.
func (g *Graph) Triples() []Triple { return g.triples }

// EntityName returns the URI of entity id.
func (g *Graph) EntityName(id int) string { return g.entityNames[id] }

// RelationName returns the URI of relation id.
func (g *Graph) RelationName(id int) string { return g.relationNames[id] }

// EntityID returns the dense ID for name, or (-1, false) if unknown.
func (g *Graph) EntityID(name string) (int, bool) {
	id, ok := g.entityIndex[name]
	if !ok {
		return -1, false
	}
	return id, true
}

// Freeze builds the adjacency index. It is idempotent and called implicitly
// by Neighbors and Degree.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.adj = make([][]Edge, len(g.entityNames))
	for _, t := range g.triples {
		g.adj[t.Subject] = append(g.adj[t.Subject], Edge{Neighbor: t.Object, Relation: t.Relation, Out: true})
		if t.Object != t.Subject {
			g.adj[t.Object] = append(g.adj[t.Object], Edge{Neighbor: t.Subject, Relation: t.Relation, Out: false})
		}
	}
	g.frozen = true
}

// Neighbors returns the relation-labelled neighborhood of entity id
// (both edge directions). The slice is shared; callers must not mutate it.
func (g *Graph) Neighbors(id int) []Edge {
	g.Freeze()
	return g.adj[id]
}

// Degree returns the undirected degree (number of incident triples,
// counting both directions) of entity id.
func (g *Graph) Degree(id int) int {
	g.Freeze()
	return len(g.adj[id])
}

// AvgDegree returns the mean entity degree, the "Avg. degree" statistic of
// the paper's Table 3. Each triple contributes one degree to its subject and
// one to its object, so the average is 2·|T| / |E| (self-loops contribute 1).
func (g *Graph) AvgDegree() float64 {
	if len(g.entityNames) == 0 {
		return 0
	}
	g.Freeze()
	total := 0
	for _, edges := range g.adj {
		total += len(edges)
	}
	return float64(total) / float64(len(g.entityNames))
}

// Stats summarizes a graph for Table 3-style reporting.
type Stats struct {
	Entities  int
	Relations int
	Triples   int
	AvgDegree float64
}

// Stats returns the dataset statistics of the graph.
func (g *Graph) Stats() Stats {
	return Stats{
		Entities:  g.NumEntities(),
		Relations: g.NumRelations(),
		Triples:   g.NumTriples(),
		AvgDegree: g.AvgDegree(),
	}
}

// SortedTriples returns a copy of the triples in deterministic
// (subject, relation, object) order, for stable serialization.
func (g *Graph) SortedTriples() []Triple {
	out := append([]Triple(nil), g.triples...)
	sort.Slice(out, func(a, b int) bool {
		ta, tb := out[a], out[b]
		if ta.Subject != tb.Subject {
			return ta.Subject < tb.Subject
		}
		if ta.Relation != tb.Relation {
			return ta.Relation < tb.Relation
		}
		return ta.Object < tb.Object
	})
	return out
}
