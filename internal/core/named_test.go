package core

import (
	"strings"
	"testing"
	"time"
)

// TestNamedMatcherTable pins the three matcher tables: which names resolve
// on each kind of run, which of them run by default, that each resolves to a
// body of that kind, and what an unresolvable name is told.
func TestNamedMatcherTable(t *testing.T) {
	p := MatcherParams{C: 8, CSLSK: 1, SinkhornL: 10}
	for _, tc := range []struct {
		table          *MatcherTable
		byDefault, all string
		csls           string // CSLS's body on this kind, by Name()
	}{
		{OnDense, "DInf CSLS RInf Sink. Hun. SMat RL", "DInf CSLS RInf RInf-wr RInf-pb Sink. Sink.-mb Hun. SMat RL", NewCSLS(1).Name()},
		{OnStream, "DInf CSLS Sink.-mb", "DInf CSLS Sink.-mb", NewCSLSStream(1).Name()},
		{OnSparse, "DInf CSLS RInf Sink. Hun. SMat", "DInf CSLS RInf Sink. Hun. SMat", NewCSLSSparse(8, 1).Name()},
	} {
		if got := strings.Join(tc.table.Names(false), " "); got != tc.byDefault {
			t.Errorf("%s: default names %q, want %q", tc.table.on, got, tc.byDefault)
		}
		if got := strings.Join(tc.table.Names(true), " "); got != tc.all {
			t.Errorf("%s: all names %q, want %q", tc.table.on, got, tc.all)
		}
		for _, name := range tc.table.Names(true) {
			if m, err := tc.table.New(name, p); err != nil || m == nil {
				t.Errorf("%s: %s: %v, %v", tc.table.on, name, m, err)
			}
		}
		if m, _ := tc.table.New("CSLS", p); m.Name() != tc.csls {
			t.Errorf("%s: CSLS resolved to %s, want %s", tc.table.on, m.Name(), tc.csls)
		}
		_, err := tc.table.New("nope", p)
		if err == nil || !strings.Contains(err.Error(), "have: "+strings.ReplaceAll(tc.all, " ", ", ")) {
			t.Errorf("%s: unknown name: %v", tc.table.on, err)
		}
	}
	if _, err := OnSparse.New("RL", p); err == nil {
		t.Error("dense-only RL resolved on candidate graphs")
	}
}

// TestWithBudgetLadder pins the degradation floor per kind and that a tier
// never follows itself.
func TestWithBudgetLadder(t *testing.T) {
	p := MatcherParams{}
	if m := NewHungarian(); OnDense.WithBudget(m, 0, p) != Matcher(m) {
		t.Error("no budget must return the matcher unchanged")
	}
	for _, tc := range []struct {
		m     Matcher
		table *MatcherTable
		want  string
	}{
		{NewHungarian(), OnDense, "Fallback[Hun.→RInf-pb→DInf]"},
		{NewDInf(), OnDense, "Fallback[DInf→RInf-pb]"},
		{NewHungarianSparse(8), OnSparse, "Fallback[" + NewHungarianSparse(8).Name() + "→" + NewDInfStream().Name() + "]"},
		{NewDInfStream(), OnStream, "Fallback[" + NewDInfStream().Name() + "]"},
	} {
		if got := tc.table.WithBudget(tc.m, time.Second, p).Name(); got != tc.want {
			t.Errorf("%s on %s: %s, want %s", tc.m.Name(), tc.table.on, got, tc.want)
		}
	}
}
