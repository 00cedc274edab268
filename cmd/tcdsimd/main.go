// Command tcdsimd serves the TCD simulator as a long-running daemon:
// clients POST experiment specs to /v1/jobs, poll job status, stream
// live progress over SSE, and fetch deterministic result JSON — with a
// spec-hash result cache making repeat submissions byte-identical
// cache hits. See DESIGN.md "Simulation as a service".
//
// Usage:
//
//	tcdsimd [-addr :9322] [-workers N] [-queue N] [-cache-mb N]
//
// The daemon drains in-flight jobs on SIGINT/SIGTERM before exiting.
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

	"github.com/tcdnet/tcd/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9322", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue capacity (0 = default 64)")
	cacheMB := flag.Int("cache-mb", 0, "byte budget of the completed-result cache, MiB (0 = default 32)")
	drain := flag.Duration("drain", 30*time.Second, "max time to drain in-flight jobs on shutdown")
	flag.Parse()

	srv := serve.New(serve.Config{
		Workers:    *workers,
		QueueCap:   *queue,
		CacheBytes: int64(*cacheMB) << 20,
	})

	// A client that never finishes its headers, or parks an idle
	// keep-alive connection, is cut off. There is no WriteTimeout: SSE
	// streams and ?wait=1 submissions hold their responses open for as
	// long as a job runs.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Listen before announcing: the banner carries the bound address (the
	// port -addr 127.0.0.1:0 was given) and a bind error comes instead of it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcdsimd:", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "tcdsimd: listening on %s (%d workers)\n", ln.Addr(), srv.Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tcdsimd: %v — draining (max %v)\n", s, *drain)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "tcdsimd:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "tcdsimd: http shutdown:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tcdsimd: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tcdsimd: clean shutdown")
}
