// Command tfjs-serve serves converted models over a KServe-V1-style HTTP
// API with dynamic micro-batching — the server-side deployment story the
// paper sketches for the "node" backend (§4.2, §7).
//
//	tfjs-serve -model mnist=./artifacts/mnist -model mobilenet=./m:webgl
//	tfjs-serve -demo -replicas 4
//
// Each -model flag, name=dir[:backend], names a model and points it at a
// converted artifact directory (the output of tfjs-convert), optionally
// suffixed with ":backend" (cpu, webgl, node; default node). A name
// holding '/' or ':' is refused, since no URL could reach it. -demo
// synthesizes a MobileNet v1 α=0.25 model in memory and serves it as
// "mobilenet" so the API can be exercised without artifacts on disk:
//
//	curl localhost:8500/v1/models
//	curl localhost:8500/v1/models/mobilenet
//	curl -d '{"instances": [[...]]}' localhost:8500/v1/models/mobilenet:predict
//	curl localhost:8500/metrics
//
// -replicas N loads N independent engine replicas per model, so
// concurrent batches execute in parallel (set GOMAXPROCS ≥ N to realize
// the speedup). A predict that finds the model's queue full gets 429
// with a Retry-After hint.
//
// -debug-addr localhost:6060 exposes net/http/pprof on a second,
// typically loopback-only listener kept off the serving address.
//
// On SIGTERM/SIGINT the server drains gracefully: /readyz flips to 503,
// new predicts are refused, in-flight requests get -drain-timeout to
// finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/converter"
	"repro/internal/serving"
	"repro/tf"
)

// modelFlags accumulates repeated -model name=dir[:backend] flags.
type modelFlags []modelSpec

type modelSpec struct {
	name    string
	dir     string
	backend string
}

func (f *modelFlags) String() string { return fmt.Sprint(*f) }

func (f *modelFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=dir[:backend], got %q", v)
	}
	spec := modelSpec{name: name, dir: rest}
	if dir, backend, ok := strings.Cut(rest, ":"); ok {
		spec.dir, spec.backend = dir, backend
	}
	*f = append(*f, spec)
	return nil
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "serve a model: name=dir[:backend] (repeatable)")
	addr := flag.String("addr", ":8500", "listen address")
	maxBatch := flag.Int("max-batch", 16, "micro-batcher: max examples per batch")
	batchTimeout := flag.Duration("batch-timeout", 2*time.Millisecond, "micro-batcher: max wait after first request")
	queueSize := flag.Int("queue-size", 128, "scheduler: bounded queue size (overflow → 429)")
	workers := flag.Int("workers", 1, "scheduler: workers per model (raised to the model's replica count when lower)")
	replicas := flag.Int("replicas", 1, "engine replicas per model (parallel batch execution)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "server-side request deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown: max wait for in-flight requests")
	demo := flag.Bool("demo", false, "serve a synthetic in-memory MobileNet v1 α=0.25 as \"mobilenet\"")
	debugAddr := flag.String("debug-addr", "", "optional second listen address exposing net/http/pprof (e.g. localhost:6060); empty disables")
	flag.Parse()

	if len(models) == 0 && !*demo {
		fmt.Fprintln(os.Stderr, "nothing to serve: pass -model name=dir[:backend] or -demo")
		flag.Usage()
		os.Exit(2)
	}

	cfg := serving.Config{
		MaxBatchSize:   *maxBatch,
		BatchTimeout:   *batchTimeout,
		QueueSize:      *queueSize,
		Workers:        *workers,
		RequestTimeout: *reqTimeout,
	}
	opts := serving.ModelOptions{
		Batching: cfg,
		Replicas: *replicas,
	}
	reg := serving.NewRegistry()
	defer reg.Close()

	if *demo {
		store, err := demoStore()
		if err != nil {
			log.Fatalf("building demo model: %v", err)
		}
		if _, err := reg.Load("mobilenet", store, opts); err != nil {
			log.Fatal(err)
		}
		log.Printf("loading model %q (demo MobileNet v1 α=0.25, input 96x96x3) on backend node, %d replica(s)",
			"mobilenet", *replicas)
	}
	for _, spec := range models {
		specOpts := opts
		specOpts.Backend = spec.backend
		if _, err := reg.Load(spec.name, converter.FSStore{Dir: spec.dir}, specOpts); err != nil {
			log.Fatal(err)
		}
		backend := spec.backend
		if backend == "" {
			backend = "node"
		}
		log.Printf("loading model %q from %s on backend %s, %d replica(s)",
			spec.name, spec.dir, backend, *replicas)
	}

	api := serving.NewServer(reg)
	defer api.Close()

	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling endpoints
		// are never reachable through the serving address — opt-in and
		// bindable to localhost while the API faces the network.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: api}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving on %s (batch ≤%d, timeout %v, queue %d, %d worker(s), %d replica(s))",
		*addr, cfg.MaxBatchSize, cfg.BatchTimeout, cfg.QueueSize, cfg.Workers, *replicas)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		// Graceful drain: readiness flips first so load balancers stop
		// routing here, new predicts 503, in-flight requests finish, then
		// the listener closes and models unload.
		log.Printf("%v: draining (max %v)", sig, *drainTimeout)
		api.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("drained; unloading models")
	}
}

// demoStore converts a synthetic MobileNet into an in-memory artifact
// store, exercising the full tfjs-convert pipeline.
func demoStore() (converter.Store, error) {
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 10, IncludeTop: true, Seed: 42,
	})
	if err != nil {
		return nil, err
	}
	defer model.Dispose()
	g, err := tf.ExportSavedModel(model, false)
	if err != nil {
		return nil, err
	}
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
		return nil, err
	}
	return store, nil
}
