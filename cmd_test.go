package entmatcher_test

// Integration tests for the command-line tools: each binary is built once
// into a temp dir and exercised through its primary flag combinations.

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"entmatcher"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles the three CLI binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "entmatcher-bins")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		for _, tool := range []string{"datagen", "entmatcher", "benchtab", "entserver"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			cmd.Dir = repoRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				_ = out
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return buildDir
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return wd
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIDatagenAndEntmatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dataDir := filepath.Join(t.TempDir(), "dz")

	out := runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)
	if !strings.Contains(out, "wrote D-Z") {
		t.Fatalf("datagen output: %s", out)
	}
	for _, f := range []string{"rel_triples_1", "ent_links_test", "ent_names_1", "ent_ids_1"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Fatalf("missing dataset file %s", f)
		}
	}

	out = runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-m", "DInf,Hun.")
	if !strings.Contains(out, "DInf") || !strings.Contains(out, "Hun.") {
		t.Fatalf("entmatcher output missing matcher rows:\n%s", out)
	}
	if !strings.Contains(out, "similarity matrix") {
		t.Fatalf("entmatcher output missing header:\n%s", out)
	}

	// Name features and unmatchable setting paths.
	out = runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-features", "name", "-m", "DInf")
	if !strings.Contains(out, "features name") {
		t.Fatalf("name features not reported:\n%s", out)
	}
	out = runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-setting", "unmatchable", "-m", "Hun.")
	if !strings.Contains(out, "unmatchable") {
		t.Fatalf("unmatchable setting not reported:\n%s", out)
	}
}

func TestCLIDatagenList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	out := runTool(t, filepath.Join(bins, "datagen"), "-list")
	for _, name := range []string{"D-Z", "S-Y", "D-W", "FB-DBP-MUL"} {
		if !strings.Contains(out, name) {
			t.Fatalf("profile %s missing from -list:\n%s", name, out)
		}
	}
}

func TestCLIDatagenRejectsUnknownProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	cmd := exec.Command(filepath.Join(bins, "datagen"), "-profile", "NOPE")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("unknown profile accepted:\n%s", out)
	}
}

func TestCLIBenchtabListAndQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	out := runTool(t, filepath.Join(bins, "benchtab"), "-list")
	for _, id := range []string{"table4", "figure7", "deepem", "extensions", "casestudy"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from -list:\n%s", id, out)
		}
	}
	out = runTool(t, filepath.Join(bins, "benchtab"), "-quick", "-exp", "table3")
	if !strings.Contains(out, "table3") || !strings.Contains(out, "D-Z") {
		t.Fatalf("benchtab table3 output:\n%s", out)
	}
}

func TestCLIBenchtabRejectsUnknownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	cmd := exec.Command(filepath.Join(bins, "benchtab"), "-exp", "nope")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}

// TestCLISparseCandidateFlag exercises the sparse candidate-graph path of
// the CLI: entmatcher -cand streams into top-C graphs and runs the sparse
// matcher twins, and rejects a dense-only matcher.
func TestCLISparseCandidateFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "ds")

	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileSRPRSDbpYg, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := entmatcher.SaveDataset(dataDir, d); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-cand", "8", "-m", "RInf,Hun.,SMat")
	if !strings.Contains(out, "similarity stream") {
		t.Fatalf("-cand run did not stream:\n%s", out)
	}
	for _, name := range []string{"RInf", "Hun.", "SMat"} {
		if !strings.Contains(out, name) {
			t.Fatalf("-cand output missing %s row:\n%s", name, out)
		}
	}
	cmd := exec.Command(filepath.Join(bins, "entmatcher"), "-data", dataDir, "-cand", "8", "-m", "RL")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("dense-only matcher accepted under -cand:\n%s", out)
	}
}

// TestCLIUnmatchableSparseAbstains: under -setting unmatchable the sparse
// Hungarian and SMat twins abstain through the same abstention columns as
// their dense bodies, so at full width (-cand past the padded width clamps
// to it) their P/R/F1 rows are the dense padded run's.
func TestCLIUnmatchableSparseAbstains(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dataDir := filepath.Join(t.TempDir(), "dz")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)
	scores := func(out string) map[string]string {
		rows := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 4 && (strings.HasPrefix(f[0], "Hun.") || strings.HasPrefix(f[0], "SMat")) {
				rows[strings.TrimSuffix(f[0], "-sparse")] = strings.Join(f[1:4], " ")
			}
		}
		return rows
	}
	entm := filepath.Join(bins, "entmatcher")
	dense := scores(runTool(t, entm, "-data", dataDir, "-setting", "unmatchable", "-m", "Hun.,SMat"))
	sparse := scores(runTool(t, entm, "-data", dataDir, "-setting", "unmatchable", "-cand", "100000", "-m", "Hun.,SMat"))
	if len(dense) != 2 || len(sparse) != 2 {
		t.Fatalf("missing matcher rows: dense %v, sparse %v", dense, sparse)
	}
	for name, want := range dense {
		if sparse[name] != want {
			t.Fatalf("%s: sparse P/R/F1 %q, dense padded run %q", name, sparse[name], want)
		}
	}
}

// TestCLIExternalEmbeddings exercises the train-anywhere / match-here
// workflow: embeddings produced through the library API are saved in the
// word2vec text format and fed to the CLI via -emb-src / -emb-tgt.
func TestCLIExternalEmbeddings(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "ds")

	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileSRPRSDbpYg, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := entmatcher.SaveDataset(dataDir, d); err != nil {
		t.Fatal(err)
	}
	emb, err := entmatcher.EncodeStructure(d, entmatcher.ModelRREA)
	if err != nil {
		t.Fatal(err)
	}
	srcPath := filepath.Join(dir, "src.emb")
	tgtPath := filepath.Join(dir, "tgt.emb")
	if err := entmatcher.SaveEmbeddings(srcPath, tgtPath, d, emb); err != nil {
		t.Fatal(err)
	}

	out := runTool(t, filepath.Join(bins, "entmatcher"),
		"-data", dataDir, "-emb-src", srcPath, "-emb-tgt", tgtPath, "-m", "DInf")
	if !strings.Contains(out, "DInf") {
		t.Fatalf("missing matcher row:\n%s", out)
	}
	// Mismatched flags must fail.
	cmd := exec.Command(filepath.Join(bins, "entmatcher"), "-data", dataDir, "-emb-src", srcPath)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("lone -emb-src accepted:\n%s", out)
	}
}

// TestCLISnapshotSaveLoad exercises the crash-safe snapshot workflow end to
// end: save during a sparse/ANN run, serve an identical run from the saved
// file, and reject corrupt or mismatched snapshots loudly.
func TestCLISnapshotSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "dz")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)

	snapPath := filepath.Join(dir, "prep.snap")
	saved := runTool(t, filepath.Join(bins, "entmatcher"),
		"-data", dataDir, "-cand", "8", "-ann", "4", "-m", "DInf,RInf", "-save-snapshot", snapPath)
	loaded := runTool(t, filepath.Join(bins, "entmatcher"),
		"-data", dataDir, "-cand", "8", "-ann", "4", "-m", "DInf,RInf", "-load-snapshot", snapPath)
	// The loaded run must reproduce the saved run's quality numbers exactly
	// (the time and memory columns legitimately vary between runs).
	scores := func(s string) []string {
		var rows []string
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) >= 4 && (f[0] == "DInf" || f[0] == "RInf-sparse") {
				rows = append(rows, strings.Join(f[:4], " "))
			}
		}
		return rows
	}
	sr, lr := scores(saved), scores(loaded)
	if len(sr) != 2 || len(lr) != 2 || sr[0] != lr[0] || sr[1] != lr[1] {
		t.Fatalf("loaded-snapshot results differ from fresh run\nfresh: %v\nloaded: %v", sr, lr)
	}

	// Flag interactions: both flags, no streaming run, mismatched clusters.
	for _, args := range [][]string{
		{"-data", dataDir, "-cand", "8", "-save-snapshot", snapPath, "-load-snapshot", snapPath},
		{"-data", dataDir, "-save-snapshot", snapPath},
		{"-data", dataDir, "-load-snapshot", snapPath},
		{"-data", dataDir, "-cand", "8", "-ann", "16", "-m", "DInf", "-load-snapshot", snapPath},
	} {
		cmd := exec.Command(filepath.Join(bins, "entmatcher"), args...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("invalid flag combination %v accepted:\n%s", args, out)
		}
	}

	// A flipped byte mid-file must be detected, never silently served.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	badPath := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bins, "entmatcher"),
		"-data", dataDir, "-cand", "8", "-ann", "4", "-m", "DInf", "-load-snapshot", badPath)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupted snapshot accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "snapshot") {
		t.Fatalf("corruption error does not mention the snapshot:\n%s", out)
	}
}

// TestCLIEntserverServesAndDrains boots the alignment server on a saved
// snapshot, queries it over HTTP, and verifies that SIGTERM produces a
// graceful drain and a zero exit.
func TestCLIEntserverServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "dz")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)
	snapPath := filepath.Join(dir, "prep.snap")
	runTool(t, filepath.Join(bins, "entmatcher"),
		"-data", dataDir, "-cand", "8", "-ann", "4", "-m", "DInf", "-save-snapshot", snapPath)

	cmd := exec.Command(filepath.Join(bins, "entserver"), "-snapshot", snapPath, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The serving line is printed only after Listen succeeded.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), " on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatalf("server never reported its address (scanner err %v)", sc.Err())
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	code, body := get("/match/topk?row=0&k=3")
	if code != http.StatusOK || !strings.Contains(body, "results") {
		t.Fatalf("/match/topk: %d %s", code, body)
	}

	// SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var drained bool
	for sc.Scan() {
		if strings.Contains(sc.Text(), "drained") {
			drained = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("entserver exit after SIGTERM: %v", err)
	}
	if !drained {
		t.Fatal("server exited without reporting a drain")
	}
}

// TestCLIFlagInteractionsExitUsage: flags that modify an engine the run
// never builds must be rejected at parse time with the usage exit code (2),
// not silently ignored. Before the fix, `-nprobe 4` without `-ann` and
// `-rerank-factor` without `-quant` both ran as if the flag had not been
// typed. Engine flags that combine illegally fail the way the library does:
// exit 2 with the message of the rule in internal/engine's table (or of
// PipelineConfig.Validate), before the dataset is read — never a clamp, and
// never the failure exit code.
func TestCLIFlagInteractionsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dataDir := filepath.Join(t.TempDir(), "dz-usage")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-data", dataDir, "-nprobe", "4", "-m", "DInf"}, "-nprobe requires -ann"},
		{[]string{"-data", dataDir, "-cand", "8", "-rerank-factor", "4", "-m", "DInf"}, "-rerank-factor requires -quant"},
		// The default value typed explicitly is still an ignored knob.
		{[]string{"-data", dataDir, "-cand", "8", "-rerank-factor", "4", "-nprobe", "0", "-m", "DInf"}, "requires"},
		{[]string{"-data", dataDir, "-target-recall", "0.9", "-m", "DInf"}, "TargetRecall requires Auto"},
		{[]string{"-data", dataDir, "-explain", "-m", "DInf"}, "-explain requires -auto"},
		{[]string{"-data", dataDir, "-cand", "8", "-ann", "4", "-nprobe", "9"}, "ANN.NProbe 9 exceeds ANN.Clusters 4"},
		{[]string{"-data", dataDir, "-ann", "4"}, "ANN requires CandidateBudget > 0"},
		{[]string{"-data", dataDir, "-quant"}, "Quant requires CandidateBudget > 0"},
		{[]string{"-data", dataDir, "-shards", "2"}, "Shards requires CandidateBudget > 0"},
		{[]string{"-data", dataDir, "-cand", "-1"}, "CandidateBudget must be non-negative"},
		{[]string{"-data", dataDir, "-cand", "8", "-ann", "-4"}, "ANN fields must be non-negative"},
		{[]string{"-data", dataDir, "-cand", "8", "-ann", "4", "-nprobe", "-1"}, "ANN fields must be non-negative"},
		{[]string{"-data", dataDir, "-cand", "8", "-quant", "-rerank-factor", "-1"}, "Quant.RerankFactor must be non-negative"},
		{[]string{"-data", dataDir, "-cand", "8", "-shards", "-2"}, "Shards must be non-negative"},
		{[]string{"-data", dataDir, "-mem-budget", "-1"}, "MemoryBudgetBytes must be non-negative"},
		{[]string{"-data", dataDir, "-mem-budget", "64", "-m", "DInf"}, "MemoryBudgetBytes requires Auto"},
		{[]string{"-data", dataDir, "-cand", "8", "-load-snapshot", "a.snap", "-auto", "-mem-budget", "64"}, "-mem-budget contradicts -load-snapshot"},
		{[]string{"-data", dataDir, "-cand", "8", "-save-snapshot", "a.snap", "-load-snapshot", "a.snap"}, "SaveSnapshot and LoadSnapshot are mutually exclusive"},
		{[]string{"-data", dataDir, "-cand", "8", "-shards", "2", "-ann", "4"}, "Shards and ANN are mutually exclusive"},
		{[]string{"-data", dataDir, "-cand", "8", "-shards", "2", "-quant"}, "Shards and Quant are mutually exclusive"},
		{[]string{"-data", dataDir, "-cand", "8", "-ann", "4", "-load-snapshot", "a.snap", "-out-of-core"}, "OutOfCore is incompatible with ANN"},
		{[]string{"-data", dataDir, "-cand", "8", "-out-of-core"}, "OutOfCore requires LoadSnapshot"},
	}
	for _, tc := range cases {
		cmd := exec.Command(filepath.Join(bins, "entmatcher"), tc.args...)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%v: want exit code 2, got err=%v\n%s", tc.args, err, out)
		}
		if ee.ExitCode() != 2 {
			t.Fatalf("%v: exit code = %d, want 2 (usage)\n%s", tc.args, ee.ExitCode(), out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("%v: error does not explain the conflict (want %q):\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCLIAutoPlanner: -auto -explain must print the chosen plan with
// per-candidate estimates and rejection reasons, then run on the
// planner-chosen engine.
func TestCLIAutoPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dataDir := filepath.Join(t.TempDir(), "dz-auto")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.02", "-out", dataDir)

	out := runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-auto", "-explain", "-m", "DInf")
	for _, want := range []string{"planner: workload", "calibration:", "chosen", "rejected", "DInf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-auto -explain output missing %q:\n%s", want, out)
		}
	}
	// Explicit engine flags pin the configuration; the planner must step
	// aside rather than fight them.
	out = runTool(t, filepath.Join(bins, "entmatcher"), "-data", dataDir, "-auto", "-cand", "8", "-m", "DInf")
	if !strings.Contains(out, "planner: bypassed") {
		t.Fatalf("-auto with explicit -cand did not report the bypass:\n%s", out)
	}
}

// TestCLITimeoutDegrades: with a 1ms budget, the Hungarian run must degrade
// to a cheaper tier, print the degradation note, and exit with code 3
// (success-with-degradation) rather than hang or fail.
func TestCLITimeoutDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bins := buildTools(t)
	dataDir := filepath.Join(t.TempDir(), "dz-timeout")
	runTool(t, filepath.Join(bins, "datagen"), "-profile", "D-Z", "-scale", "0.05", "-out", dataDir)

	cmd := exec.Command(filepath.Join(bins, "entmatcher"), "-data", dataDir, "-m", "Hun.", "-timeout", "1ms")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("want exit code 3, got err=%v\n%s", err, out)
	}
	if ee.ExitCode() != 3 {
		t.Fatalf("exit code = %d, want 3\n%s", ee.ExitCode(), out)
	}
	if !strings.Contains(string(out), "degraded to") {
		t.Fatalf("missing degradation note:\n%s", out)
	}
}
