// Command entserver serves entity-alignment queries over HTTP from one
// crash-safe snapshot (see internal/snapshot and `entmatcher
// -save-snapshot`). The snapshot is verified once at startup and the
// embedding tables are memory-mapped from the file by default (-mmap=false
// forces a full load), so a snapshot larger than RAM still serves; requests
// are then answered entirely from the prepared tables and the persisted IVF
// index — no embedding model, no dataset directory.
//
// Usage:
//
//	entmatcher -data ./data/D-Z -cand 64 -ann 32 -save-snapshot prep.snap
//	entserver -snapshot prep.snap -addr :8080
//
//	curl 'localhost:8080/match/topk?src=src/42&k=5'
//	curl -X POST localhost:8080/align -d '{"matcher":"RInf","cand":32}'
//	curl localhost:8080/readyz
//	curl localhost:8080/statsz
//
// A snapshot saved with `entmatcher -quant -save-snapshot` carries SQ8
// quantized tables; the server then serves both work endpoints from the int8
// code slabs with exact float64 re-rank (served_by/matcher report the
// "quant" tier), falling back to the float index and exact scan on failure.
//
// The server sheds load instead of queuing (429 + Retry-After past
// -max-inflight), bounds every request with -timeout, surfaces degraded
// answers in the response's "degraded_from" field, and drains in-flight
// requests on SIGTERM/SIGINT before exiting 0. See internal/server for the
// full robustness contract and internal/exitcode for the exit convention.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entmatcher/internal/exitcode"
	"entmatcher/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "entserver:", err)
		os.Exit(exitcode.Failure)
	}
	os.Exit(exitcode.OK)
}

func run() error {
	var (
		snapPath  = flag.String("snapshot", "", "snapshot file to serve (required; written by entmatcher -save-snapshot)")
		addr      = flag.String("addr", ":8080", "listen address")
		maxFlight = flag.Int("max-inflight", 16, "admission-gate capacity: requests beyond this many in flight are shed with 429 + Retry-After")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline; a request that exceeds it gets 504")
		cacheSize = flag.Int("cache", 1024, "LRU capacity (entries) for /match/topk results")
		maxK      = flag.Int("max-k", 128, "largest k a /match/topk request may ask for")
		nprobe    = flag.Int("nprobe", 0, "IVF cells probed per /match/topk query (0 = the snapshot's recorded value; one cell when it recorded the auto count)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests before giving up")
		useMmap   = flag.Bool("mmap", true, "serve the embedding tables from a memory mapping of the snapshot file (tables larger than RAM page in on demand); falls back to a full load when the platform cannot mmap")
	)
	flag.Parse()
	if *snapPath == "" {
		return fmt.Errorf("-snapshot is required")
	}

	scfg := server.Config{
		MaxInFlight:    *maxFlight,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		MaxK:           *maxK,
		NProbe:         *nprobe,
	}
	newServer := server.New
	if *useMmap {
		newServer = server.NewMapped
	}
	srv, err := newServer(*snapPath, scfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	rows, cols := srv.Dims()
	// Startup self-configuration: what the cost-based planner picks for the
	// served shape, for operators to compare against the snapshot's engine.
	// Also exposed at /statsz as "plan".
	if p := srv.Plan(); p != nil {
		fmt.Printf("entserver: planner: %s for %d×%d (est wall %v)\n",
			p.Chosen.Label(), rows, cols, p.Chosen.EstWall().Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// Printed after Listen succeeded, so scripts can poll for this line;
	// the address stays the final token after " on " for parsers.
	tables := "resident tables"
	if srv.Mapped() {
		tables = "mmapped tables"
	}
	fmt.Printf("entserver: serving %d×%d task (%s) on %s\n", rows, cols, tables, ln.Addr())

	select {
	case err := <-errc:
		return err // Serve failed before any shutdown was requested
	case <-ctx.Done():
	}

	// Drain: flip /readyz to 503 so load balancers stop routing here, then
	// let in-flight requests finish. Shutdown stops accepting new
	// connections immediately and returns once the last request completes
	// (or the drain budget runs out).
	fmt.Println("entserver: signal received, draining")
	srv.StartDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.Stats()
	var built, hit, held int64
	for tier := range st.AlignGraphBuilds {
		built += st.AlignGraphBuilds[tier]
		hit += st.AlignGraphHits[tier]
		held += st.AlignGraphBytes[tier]
	}
	fmt.Printf("entserver: drained, exiting (served quant=%d ann=%d exact=%d, cache hits=%d misses=%d, shed=%d, align graphs built=%d hit=%d held=%dB)\n",
		st.ServedQuant, st.ServedANN, st.ServedExact,
		st.CacheHits, st.CacheMisses, st.GateRejections, built, hit, held)
	return nil
}
