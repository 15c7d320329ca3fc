package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

var elapsedField = regexp.MustCompile(`"elapsed_ms":\d+`)

// alignBody posts to /align and returns the raw 200 body with elapsed_ms —
// the one field that is a measurement, not an answer — blanked.
func alignBody(t *testing.T, h http.Handler, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/align", bytes.NewBufferString(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /align %s: status %d (body %s)", body, rec.Code, rec.Body)
	}
	return elapsedField.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_ms":0`))
}

func tierStat(t *testing.T, st map[string]any, key, tier string) float64 {
	t.Helper()
	m, ok := st[key].(map[string]any)
	if !ok {
		t.Fatalf("statsz has no %s map: %v", key, st[key])
	}
	v, ok := m[tier].(float64)
	if !ok {
		t.Fatalf("statsz %s has no %q tier: %v", key, tier, m)
	}
	return v
}

// TestAlignRepeatServedFromMemo: the same /align twice returns byte-identical
// bodies, the second without building a graph; a different matcher at the
// same budget builds only the part it lacks; /statsz shows it per tier. CSLS
// (k = 1) after RInf lacks the column means: the float ann tier reads them
// off RInf's reverse graph (1 build, 3 hits, 1 derived), the SQ8 quant tier
// must scan for them — its re-rank pool depends on the budget, so a reverse
// head is not provably the column's best (2 builds, 2 hits, 0 derived).
func TestAlignRepeatServedFromMemo(t *testing.T) {
	for _, tc := range []struct {
		tier                  string
		srv                   *Server
		builds, hits, derived float64
	}{
		{"quant", newQuantServer(t, 4), 2, 2, 0},
		{"ann", newTestServer(t, Config{}), 1, 3, 1},
	} {
		h := tc.srv.Handler()
		const req = `{"matcher":"RInf","cand":8}`
		first := alignBody(t, h, req)
		st := getJSON(t, h, "/statsz", http.StatusOK)
		if b, hit := tierStat(t, st, "align_graph_builds", tc.tier), tierStat(t, st, "align_graph_hits", tc.tier); b != 1 || hit != 0 {
			t.Fatalf("%s: after one /align: %v builds, %v hits", tc.tier, b, hit)
		}
		if tierStat(t, st, "align_graph_bytes", tc.tier) == 0 {
			t.Fatalf("%s: memo holds no bytes after an /align", tc.tier)
		}
		second := alignBody(t, h, req)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: repeated /align returned a different body:\n%s\n%s", tc.tier, first, second)
		}
		alignBody(t, h, `{"matcher":"Hun.","cand":8}`) // forward graph only: held
		alignBody(t, h, `{"matcher":"CSLS","cand":8}`) // lacks the column means
		st = getJSON(t, h, "/statsz", http.StatusOK)
		b, hit, der := tierStat(t, st, "align_graph_builds", tc.tier), tierStat(t, st, "align_graph_hits", tc.tier), tierStat(t, st, "align_graph_derived", tc.tier)
		if b != tc.builds || hit != tc.hits || der != tc.derived {
			t.Fatalf("%s: after RInf, RInf, Hun., CSLS: %v builds, %v hits, %v derived, want %v, %v and %v",
				tc.tier, b, hit, der, tc.builds, tc.hits, tc.derived)
		}
		if tierStat(t, st, "align_graph_builds", "exact") != 0 {
			t.Fatalf("%s: the exact tier built graphs on a healthy server", tc.tier)
		}
	}
}

// TestAlignMemoWrapsInjectedSource: the memo goes around whatever source the
// options left in a tier, so a failing injected tier still degrades — a
// failed build caches nothing — and the tier below it memoizes as usual.
func TestAlignMemoWrapsInjectedSource(t *testing.T) {
	base := newTestServer(t, Config{})
	srv := newTestServer(t, Config{},
		WithAlignSource(&failTileSource{inner: base.stream, err: errors.New("injected ann outage")}))
	h := srv.Handler()
	const req = `{"matcher":"RInf","cand":8}`
	first, second := alignBody(t, h, req), alignBody(t, h, req)
	if !bytes.Equal(first, second) || !bytes.Contains(first, []byte(`"RInf-sparse@exact"`)) {
		t.Fatalf("degraded /align bodies differ or were not served by the exact tier:\n%s\n%s", first, second)
	}
	st := getJSON(t, h, "/statsz", http.StatusOK)
	if b, hit := tierStat(t, st, "align_graph_builds", "ann"), tierStat(t, st, "align_graph_hits", "ann"); b != 0 || hit != 0 {
		t.Fatalf("failing ann tier reports %v builds, %v hits", b, hit)
	}
	if b, hit := tierStat(t, st, "align_graph_builds", "exact"), tierStat(t, st, "align_graph_hits", "exact"); b != 1 || hit != 1 {
		t.Fatalf("exact tier under a failing ann tier: %v builds, %v hits, want 1 and 1", b, hit)
	}
}
