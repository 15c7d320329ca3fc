package kg

import (
	"math"
	"math/rand"
	"testing"
)

func smallGraph() *Graph {
	g := NewGraph("test")
	g.AddTripleNames("a", "r1", "b")
	g.AddTripleNames("b", "r2", "c")
	g.AddTripleNames("a", "r1", "c")
	return g
}

func TestInterning(t *testing.T) {
	g := NewGraph("g")
	id1 := g.AddEntity("x")
	id2 := g.AddEntity("x")
	if id1 != id2 {
		t.Fatalf("same name interned to %d and %d", id1, id2)
	}
	if g.NumEntities() != 1 {
		t.Fatalf("NumEntities = %d", g.NumEntities())
	}
	if name := g.EntityName(id1); name != "x" {
		t.Fatalf("EntityName = %q", name)
	}
	if _, ok := g.EntityID("missing"); ok {
		t.Fatal("unknown entity resolved")
	}
}

func TestAddTripleValidation(t *testing.T) {
	g := NewGraph("g")
	g.AddEntity("a")
	g.AddRelation("r")
	if err := g.AddTriple(0, 0, 5); err == nil {
		t.Fatal("out-of-range object accepted")
	}
	if err := g.AddTriple(0, 3, 0); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
	if err := g.AddTriple(0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	g := smallGraph()
	st := g.Stats()
	if st.Entities != 3 || st.Relations != 2 || st.Triples != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// 3 triples × 2 endpoints / 3 entities = 2.0
	if math.Abs(st.AvgDegree-2.0) > 1e-12 {
		t.Fatalf("AvgDegree = %v, want 2.0", st.AvgDegree)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := smallGraph()
	a, _ := g.EntityID("a")
	b, _ := g.EntityID("b")
	c, _ := g.EntityID("c")
	if g.Degree(a) != 2 || g.Degree(b) != 2 || g.Degree(c) != 2 {
		t.Fatalf("degrees = %d %d %d", g.Degree(a), g.Degree(b), g.Degree(c))
	}
	var outs, ins int
	for _, e := range g.Neighbors(b) {
		if e.Out {
			outs++
		} else {
			ins++
		}
	}
	if outs != 1 || ins != 1 {
		t.Fatalf("entity b: %d out / %d in edges", outs, ins)
	}
}

func TestFreezeInvalidatedByMutation(t *testing.T) {
	g := smallGraph()
	a, _ := g.EntityID("a")
	before := g.Degree(a)
	g.AddTripleNames("a", "r1", "d")
	if got := g.Degree(a); got != before+1 {
		t.Fatalf("degree after new triple = %d, want %d", got, before+1)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := NewGraph("g")
	g.AddTripleNames("a", "r", "a")
	a, _ := g.EntityID("a")
	if g.Degree(a) != 1 {
		t.Fatalf("self-loop degree = %d, want 1", g.Degree(a))
	}
}

func TestSortedTriplesDeterministic(t *testing.T) {
	g := NewGraph("g")
	g.AddTripleNames("b", "r", "a")
	g.AddTripleNames("a", "r", "b")
	s := g.SortedTriples()
	if s[0].Subject > s[1].Subject {
		t.Fatal("triples not sorted by subject")
	}
	// Original slice must be untouched.
	if g.Triples()[0].Subject == s[0].Subject && g.Triples()[0] != s[0] {
		t.Fatal("SortedTriples mutated the graph")
	}
}

func TestLinkSetOneToOne(t *testing.T) {
	var s LinkSet
	s.Add(0, 0)
	s.Add(1, 1)
	if !s.IsOneToOne() {
		t.Fatal("1-to-1 set rejected")
	}
	s.Add(0, 2)
	if s.IsOneToOne() {
		t.Fatal("1-to-many set accepted as 1-to-1")
	}
}

func TestMultiplicity(t *testing.T) {
	var s LinkSet
	s.Add(0, 0) // 1-to-1
	s.Add(1, 1) // 1-to-many (source 1 appears twice)
	s.Add(1, 2) //
	s.Add(2, 3) // many-to-1 (target 3 appears twice)
	s.Add(3, 3) //
	s.Add(4, 4) // many-to-many: source 4 and target 4 both repeat
	s.Add(4, 5) // 1-to-many: source 4 repeats, target 5 unique
	s.Add(5, 4) // many-to-1: source 5 unique, target 4 repeats
	st := s.Multiplicity()
	if st.OneToOne != 1 {
		t.Fatalf("OneToOne = %d, want 1", st.OneToOne)
	}
	if st.OneToMany != 3 {
		t.Fatalf("OneToMany = %d, want 3", st.OneToMany)
	}
	if st.ManyToOne != 3 {
		t.Fatalf("ManyToOne = %d, want 3", st.ManyToOne)
	}
	if st.ManyToMany != 1 {
		t.Fatalf("ManyToMany = %d, want 1", st.ManyToMany)
	}
}

func TestSplitLinksFractions(t *testing.T) {
	var links LinkSet
	for i := 0; i < 1000; i++ {
		links.Add(i, i)
	}
	sp, err := SplitLinks(links, 0.2, 0.1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.Len() != 200 || sp.Valid.Len() != 100 || sp.Test.Len() != 700 {
		t.Fatalf("split sizes = %d/%d/%d", sp.Train.Len(), sp.Valid.Len(), sp.Test.Len())
	}
	if sp.TotalLinks() != 1000 {
		t.Fatalf("TotalLinks = %d", sp.TotalLinks())
	}
}

func TestSplitLinksRejectsBadFractions(t *testing.T) {
	var links LinkSet
	links.Add(0, 0)
	if _, err := SplitLinks(links, 0.8, 0.3, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("fractions summing above 1 accepted")
	}
	if _, err := SplitLinksGrouped(links, -0.1, 0.1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestSplitLinksDisjointAndComplete(t *testing.T) {
	var links LinkSet
	for i := 0; i < 137; i++ {
		links.Add(i, 136-i)
	}
	sp, err := SplitLinks(links, 0.2, 0.1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Link]int)
	for _, set := range []LinkSet{sp.Train, sp.Valid, sp.Test} {
		for _, l := range set.Links {
			seen[l]++
		}
	}
	if len(seen) != 137 {
		t.Fatalf("links lost: %d unique of 137", len(seen))
	}
	for l, c := range seen {
		if c != 1 {
			t.Fatalf("link %v appears %d times", l, c)
		}
	}
}

// TestSplitLinksGroupedIntegrity verifies the § 5.2 rule: links sharing an
// entity never straddle partitions.
func TestSplitLinksGroupedIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var links LinkSet
	// Build clusters: entity i links to targets 2i and 2i+1 (1-to-many), and
	// some chains source (i, i+1) -> target shared.
	for i := 0; i < 200; i++ {
		links.Add(i, 2*i)
		if i%3 == 0 {
			links.Add(i, 2*i+1)
		}
		if i%7 == 0 && i > 0 {
			links.Add(i-1, 2*i) // chain: shares target with (i, 2i)
		}
	}
	sp, err := SplitLinksGrouped(links, 0.7, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	where := make(map[[2]int]string) // (side, entity) -> partition
	record := func(set LinkSet, name string) {
		for _, l := range set.Links {
			for _, key := range [][2]int{{0, l.Source}, {1, l.Target}} {
				if prev, ok := where[key]; ok && prev != name {
					t.Fatalf("entity %v in both %s and %s", key, prev, name)
				}
				where[key] = name
			}
		}
	}
	record(sp.Train, "train")
	record(sp.Valid, "valid")
	record(sp.Test, "test")
	if sp.TotalLinks() != links.Len() {
		t.Fatalf("TotalLinks = %d, want %d", sp.TotalLinks(), links.Len())
	}
	// Fractions are approximate under the integrity constraint; require the
	// train share within 15 points of the target.
	frac := float64(sp.Train.Len()) / float64(links.Len())
	if frac < 0.55 || frac > 0.85 {
		t.Fatalf("train fraction %v too far from 0.7", frac)
	}
}

func TestPairValidate(t *testing.T) {
	src := smallGraph()
	tgt := smallGraph()
	sp := &Split{}
	sp.Test.Add(0, 0)
	p := &Pair{Name: "p", Source: src, Target: tgt, Split: sp}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Test.Add(99, 0)
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	sp.Test.Links = sp.Test.Links[:1]
	p.SourceNames = []string{"only-one"}
	if err := p.Validate(); err == nil {
		t.Fatal("short name table accepted")
	}
}

func TestAllLinks(t *testing.T) {
	sp := &Split{}
	sp.Train.Add(0, 0)
	sp.Valid.Add(1, 1)
	sp.Test.Add(2, 2)
	p := &Pair{Split: sp}
	if got := p.AllLinks().Len(); got != 3 {
		t.Fatalf("AllLinks = %d links", got)
	}
}
