// Command amdahl-serve exposes the Amdahl/Young-Daly analyses as a
// long-running JSON-over-HTTP planning service. Its endpoints:
//
//   - POST /v1/evaluate: exact overhead and pattern time at a given
//     (T, P);
//   - POST /v1/optimize: the numerical optimum (T*, P*);
//   - POST /v1/simulate: seeded Monte-Carlo campaigns, including the
//     non-exponential -dist laws;
//   - POST /v1/sweep: a whole figure axis solved as one warm-start
//     chain, streamed back as NDJSON rows — single-level, two-level with
//     "multilevel", or heterogeneous with "hetero";
//   - POST /v1/multilevel/optimize and /v1/multilevel/simulate: the
//     joint two-level (T*, K*, P*) optimum and seeded two-level
//     campaigns;
//   - POST /v1/hetero/optimize and /v1/hetero/simulate: the joint
//     optimum over a heterogeneous topology (which groups work, how the
//     load splits, each group's pattern) and seeded campaigns of a plan,
//     the optimum when none is given;
//   - GET /v1/cache/hot and POST /v1/cache/fill: export the hottest
//     cached results and import them on another replica, the pair the
//     fleet router warm-fills a rejoining replica with;
//   - GET /v1/stats: engine, cache and scheduler counters;
//   - GET /healthz: liveness, 200 while the process serves;
//   - GET /readyz: readiness, 503 while draining or while the scheduler
//     is saturated, which is what the router's health probes read.
//
// One process amortizes repeated configurations across requests: compiled
// evaluators, optimizer results and campaign results are cached under
// canonical model keys, concurrent identical requests solve once
// (single-flight), heavy jobs run on a bounded scheduler, and a client
// hang-up cancels its in-flight campaign. Results are bit-identical to
// the amdahl-opt / amdahl-sim CLI tools for the same parameters (sweep
// cells match per-cell optimization within the refinement tolerance, or
// bitwise with "cold":true).
//
// With -router the same binary fronts a fleet of replicas instead of
// serving itself: requests shard by canonical model key on a
// consistent-hash ring, slow owners are hedged to their ring successor,
// dead ones failed over with bounded backoff, and ring membership is
// driven by /readyz health probes with peer warm-fill on rejoin
// (internal/fleet).
//
// Usage:
//
//	amdahl-serve -addr :8080
//	curl -s localhost:8080/v1/optimize -d '{"model":{"platform":"hera","scenario":1}}'
//	curl -s localhost:8080/v1/simulate -d '{"model":{"platform":"hera"},"runs":100,"seed":1}'
//	curl -s localhost:8080/v1/sweep -d '{"model":{"platform":"hera","scenario":3},"axis":"lambda","values":[1e-10,2e-10,4e-10]}'
//	curl -s localhost:8080/v1/multilevel/optimize -d '{"model":{"platform":"hera","scenario":3},"in_mem_fraction":0.0667}'
//	curl -s localhost:8080/v1/multilevel/simulate -d '{"model":{"platform":"hera","scenario":3},"runs":100,"seed":1}'
//	curl -s localhost:8080/v1/hetero/optimize -d '{"topology":{"comm":0.02,"groups":[
//	  {"name":"cpu","lambda_ind":1.69e-8,"f":0.2188,"s":0.7812,"size":25600,"speed":1,"cp":300,"vp":15},
//	  {"name":"accel","lambda_ind":8.45e-7,"f":0.2188,"s":0.7812,"size":128,"speed":8,"cp":60,"vp":4}]}}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/readyz
//
//	amdahl-serve -addr :8090 -router -peers a=http://h1:8080,b=http://h2:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"time"

	"amdahlyd/internal/fleet"
	"amdahlyd/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amdahl-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("amdahl-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	frozenCache := fs.Int("frozen-cache", 0, "compiled-evaluator cache entries (0 = default 4096)")
	resultCache := fs.Int("result-cache", 0, "optimizer/campaign result cache entries per cache (0 = default 1024)")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent optimize/simulate jobs (0 = GOMAXPROCS)")
	maxQueued := fs.Int("max-queued", 0, "jobs waiting for a scheduler slot before shedding load with 503 (0 = 8×max-concurrent, negative = unbounded)")
	simWorkers := fs.Int("sim-workers", 0, "worker pool per campaign (0 = 1; results are worker-count independent)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown budget: in-flight work (including NDJSON sweep streams) drains within it")
	router := fs.Bool("router", false, "run as a fleet router over -peers instead of serving an engine")
	peersFlag := fs.String("peers", "", "router mode: comma-separated replica base URLs, each \"name=url\" or bare \"url\"")
	hedgeAfter := fs.Duration("hedge-after", 150*time.Millisecond, "router mode: hedge a slow owner to its ring successor after this long (negative disables)")
	healthInterval := fs.Duration("health-interval", 500*time.Millisecond, "router mode: /readyz probe interval driving ring membership")
	quiet := fs.Bool("quiet", false, "suppress per-request logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Sizes have no negative meaning, and NewEngine would panic on one;
	// -max-queued is exempt (negative = unbounded).
	for _, name := range []string{"frozen-cache", "result-cache", "max-concurrent", "sim-workers"} {
		if v := fs.Lookup(name).Value; strings.HasPrefix(v.String(), "-") {
			return fmt.Errorf("-%s %s is negative (0 keeps the default)", name, v)
		}
	}

	var handler http.Handler
	var apiSrv *service.Server // replica mode only: owns the drain lifecycle
	var checker *fleet.HealthChecker
	if *router {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		rt, err := fleet.NewRouter(fleet.RouterOptions{
			Peers:      peers,
			HedgeAfter: *hedgeAfter,
		})
		if err != nil {
			return err
		}
		checker = fleet.NewHealthChecker(rt.Ring(), peers, fleet.HealthOptions{
			Interval: *healthInterval,
		})
		checker.Start()
		defer checker.Stop()
		handler = rt
	} else {
		engine := service.NewEngine(service.Options{
			FrozenCacheSize: *frozenCache,
			ResultCacheSize: *resultCache,
			MaxConcurrent:   *maxConcurrent,
			MaxQueued:       *maxQueued,
			SimWorkers:      *simWorkers,
		})
		apiSrv = service.NewServer(engine)
		handler = apiSrv
	}
	if !*quiet {
		handler = logRequests(handler)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-client protection: a peer that never finishes its headers or
		// parks an idle keep-alive connection must not hold a socket forever.
		// Request *bodies* are already bounded (MaxBytesReader in the
		// handlers) and long responses are legitimate (sweep campaigns), so
		// no blanket Read/WriteTimeout — those would kill honest work.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: an interrupt stops accepting, lets in-flight
	// requests finish (their own contexts still cancel on client
	// hang-up), and forces exit after the -shutdown-timeout budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		mode := "replica"
		if *router {
			mode = "router"
		}
		log.Printf("amdahl-serve (%s) listening on %s", mode, *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("amdahl-serve shutting down (budget %s)", *shutdownTimeout)
	if apiSrv != nil {
		// Flip /readyz to 503 now (routers stop sending work) and cut
		// still-running sweep streams cleanly at a row boundary when 90% of
		// the budget is gone — the remaining 10% lets http.Server.Shutdown
		// flush the trailing error lines instead of racing them.
		apiSrv.StartDrain(*shutdownTimeout * 9 / 10)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// parsePeers decodes the -peers flag: comma-separated entries, each
// "name=url" or a bare URL (named by its host:port).
func parsePeers(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-router needs -peers")
	}
	peers := make(map[string]string)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, base, ok := strings.Cut(entry, "=")
		if !ok {
			base = entry
			u, err := url.Parse(entry)
			if err != nil || u.Host == "" {
				return nil, fmt.Errorf("-peers entry %q is not a URL (use name=url or an absolute url)", entry)
			}
			name = u.Host
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("-peers names %q twice", name)
		}
		peers[name] = base
	}
	return peers, nil
}

// logRequests is a minimal request-log middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		//lint:allow walltime request-log latency measurement; never reaches a response body or cache key
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		//lint:allow walltime request-log latency measurement; never reaches a response body or cache key
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush preserves the streaming capability the sweep and router paths
// rely on — without it the logging wrapper would silently buffer NDJSON
// rows until the response ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
