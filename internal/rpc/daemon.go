package rpc

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nexus/internal/obs"
)

// Daemon is the process shell kgd, nexusw and nexusd share: the listen,
// drain, debug and slow-capture flags (plus the fault-injection flags on
// the two protocol daemons) and the run sequence behind them.
type Daemon struct {
	name string // flag-set name: log prefix and metric namespace

	addr, debugAddr *string
	drainTimeout    *time.Duration
	slowThresh      *time.Duration
	slowKeep        *int

	failRate  *float64 // nil without fault-injection flags
	latency   *time.Duration
	faultSeed *uint64
}

// NewDaemon registers the shared flags on fs with the daemon's default
// listen address and drain timeout. faults adds -fail-rate, -latency and
// -fault-seed.
func NewDaemon(fs *flag.FlagSet, addr string, drainTimeout time.Duration, faults bool) *Daemon {
	d := &Daemon{
		name:         fs.Name(),
		addr:         fs.String("addr", addr, "listen address"),
		drainTimeout: fs.Duration("drain-timeout", drainTimeout, "how long shutdown waits for in-flight requests"),
		debugAddr:    fs.String("debug-addr", "", "serve net/http/pprof, /metrics and /debug/slow on this extra address (keep it loopback-only)"),
		slowThresh:   fs.Duration("slow-threshold", 0, "capture requests at least this slow on /debug/slow (0 = off)"),
		slowKeep:     fs.Int("slow-keep", 32, "retain this many slowest captured requests"),
	}
	if faults {
		d.failRate = fs.Float64("fail-rate", 0, "probability of rejecting a request with HTTP 500 (fault injection)")
		d.latency = fs.Duration("latency", 0, "artificial delay per request (fault injection)")
		d.faultSeed = fs.Uint64("fault-seed", 1, "RNG seed for fault injection")
	}
	return d
}

// ServerConfig returns the parsed flags as the config a protocol server
// embeds, rejecting an out-of-range -fail-rate.
func (d *Daemon) ServerConfig() (ServerConfig, error) {
	cfg := ServerConfig{SlowThreshold: *d.slowThresh, SlowKeep: *d.slowKeep}
	if d.failRate == nil {
		return cfg, nil
	}
	if *d.failRate < 0 || *d.failRate >= 1 {
		return cfg, fmt.Errorf("-fail-rate must be in [0,1), got %g", *d.failRate)
	}
	cfg.FailRate, cfg.Latency, cfg.Seed = *d.failRate, *d.latency, *d.faultSeed
	if cfg.FailRate > 0 || cfg.Latency > 0 {
		log.Printf("fault injection: fail-rate %g, latency %s (seed %d)", cfg.FailRate, cfg.Latency, cfg.Seed)
	}
	return cfg, nil
}

// Main is a daemon's func main: it runs run on the process arguments and
// exits 1 with the error on stderr if it fails (-h is not a failure).
func Main(run func(args []string) error) {
	if err := run(os.Args[1:]); err != nil && err != flag.ErrHelp {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(1)
	}
}

// Service is what Run needs of a server; kgserve, distworker and
// internal/server all provide it.
type Service interface {
	Registry() *obs.Registry
	SlowLog() *obs.SlowLog
	Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error
}

// Run serves srv until SIGTERM or SIGINT, then drains it. Around that it
// dumps the slow log as JSONL to stderr on every SIGQUIT (the operator's
// "what has been slow?" without scraping; the process keeps running) and,
// with -debug-addr, serves the debug sidecar. It binds before logging, so
// "-addr :0" reports the actual port — the kill test and the two-terminal
// quickstarts parse that line.
func (d *Daemon) Run(srv Service) error {
	if slow := srv.SlowLog(); slow != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer func() {
			signal.Stop(quit)
			close(quit) // ends the dump goroutine; Stop guarantees no further sends
		}()
		go func() {
			for range quit {
				slow.WriteJSONL(os.Stderr)
			}
		}()
	}
	if *d.debugAddr != "" {
		dbg := &http.Server{Addr: *d.debugAddr, Handler: d.debugMux(srv)}
		go func() {
			log.Printf("debug listener (pprof, /metrics, /debug/slow) on %s", *d.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", *d.addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	if err := srv.Serve(ctx, ln, *d.drainTimeout); err != nil {
		return err
	}
	log.Printf("drained, bye")
	return nil
}

// debugMux bundles the operator-facing debug surface served on the opt-in
// -debug-addr listener: net/http/pprof under /debug/pprof/, the metrics
// exposition under /metrics and the slow-request report under
// /debug/slow. pprof stays off the public mux on purpose — profiles can
// stall the process and leak internals, so they bind to a separate
// (typically loopback) address.
func (d *Daemon) debugMux(srv Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", MetricsHandler(srv.Registry(), d.name))
	mux.Handle("/debug/slow", SlowHandler(srv.SlowLog()))
	return mux
}
