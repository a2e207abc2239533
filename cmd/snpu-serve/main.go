// Command snpu-serve is the multi-tenant serving daemon over the
// simulated sNPU SoC: an HTTP/JSON API to provision sealing keys,
// submit secure and non-secure inference requests, and run
// deterministic scheduling episodes (see internal/serve and
// internal/sched).
//
//	snpu-serve -addr :8080 -cores 0,1,2,3
//	snpu-serve -graph examples/graphs/tinycnn.json
//
//	curl -s -XPOST localhost:8080/v1/submit \
//	  -d '{"tenant":"a","model":"resnet"}'
//	curl -s -XPOST localhost:8080/v1/run | jq .completed
//	curl -s localhost:8080/metrics | head
//
// -graph registers custom graph-IR models at boot (comma-separated
// files): each compiles through internal/graph and becomes submittable
// by name, listed by GET /v1/models alongside the built-ins. Clients
// can also submit a one-off inline graph in the "graph" field of
// POST /v1/submit; invalid IR is a 400 either way.
//
// SIGTERM/SIGINT trigger a graceful drain: admission seals (submits
// get 503 + Retry-After, /readyz flips to 503), one final scheduling
// episode finishes in-flight work, then the listener shuts down and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	snpu "repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cores := flag.String("cores", "", "comma-separated core list (default: all)")
	maxBatch := flag.Int("max-batch", 0, "secure same-model batch width (0 = default)")
	baseline := flag.Bool("baseline", false, "boot the unprotected baseline (non-secure only)")
	maxRestarts := flag.Int("max-restarts", 3, "fault-abort retry budget per secure request (0 = disabled)")
	tenantQueue := flag.Int("tenant-queue", 8, "per-tenant queue bound; overflow sheds lowest priority (0 = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive aborts before tenant quarantine (0 = disabled)")
	breakerCooldown := flag.Int("breaker-cooldown", 2, "quarantine length in scheduling episodes")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wall time for graceful shutdown")
	graphFiles := flag.String("graph", "", "comma-separated graph-IR files to register as named models")
	flag.Parse()

	coreList, err := parseCores(*cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var models []workload.Workload
	if *graphFiles != "" {
		for _, path := range strings.Split(*graphFiles, ",") {
			path = strings.TrimSpace(path)
			w, err := graph.LoadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "snpu-serve: -graph %s: %v\n", path, err)
				os.Exit(2)
			}
			models = append(models, w)
		}
	}
	cfg := snpu.DefaultConfig()
	if *baseline {
		cfg = snpu.BaselineConfig()
	}
	sys, err := snpu.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.EnableObservability(obs.Config{})
	srv, err := serve.New(sys, serve.Config{
		Cores:             coreList,
		MaxBatch:          *maxBatch,
		MaxRestarts:       *maxRestarts,
		MaxQueuePerTenant: *tenantQueue,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		Models:            models,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	log.Printf("snpu-serve listening on %s (protected=%v)", *addr, !*baseline)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("snpu-serve: %v: draining (admission sealed)", sig)
	}

	// Seal admission first so /readyz flips immediately, then finish
	// whatever is in flight before tearing the listener down.
	srv.Drain()
	if rep, err := srv.DrainAndFinish(); err != nil {
		log.Printf("snpu-serve: final episode failed: %v", err)
	} else if rep != nil {
		log.Printf("snpu-serve: drained final episode: completed=%d dropped=%d aborted=%d shed=%d",
			rep.Completed, rep.Dropped, rep.Aborted, rep.Shed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("snpu-serve: shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("snpu-serve: drained, exiting")
}

func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("snpu-serve: bad core list %q: %v", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}
