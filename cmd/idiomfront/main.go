// Command idiomfront is the fleet front door: a thin consistent-hash router
// that spreads the v1 matching API across N idiomd replicas. Modules are
// routed by the SHA-256 of their source text, so the same module always
// lands on the same replica and each shard's solve memo (and disk spill)
// stays hot; pack registrations are broadcast so every shard can serve every
// pack. See internal/fleet for the routing and failover contract.
//
// Usage:
//
//	idiomfront -replicas http://127.0.0.1:8181,http://127.0.0.1:8182
//	idiomfront -addr :8174 -replicas ... -health-interval 2s
//
// The front holds no warm state of its own: restart it freely, scale it by
// running several with identical -replicas lists (the hash ring is a pure
// function of the replica URLs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8174", "listen address")
	replicas := flag.String("replicas", "", "comma-separated idiomd base URLs (required), e.g. http://127.0.0.1:8181,http://127.0.0.1:8182")
	interval := flag.Duration("health-interval", 2*time.Second, "replica health-probe period; also bounds each control-plane GET to a replica")
	flag.Parse()

	var list []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			list = append(list, r)
		}
	}
	front, err := fleet.New(fleet.Options{
		Replicas:       list,
		HealthInterval: *interval,
	})
	if err != nil {
		fatal(err)
	}
	front.CheckNow()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           front.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "idiomfront: routing on %s across %d replica(s)\n", *addr, len(list))

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "idiomfront: shutdown:", err)
		}
		front.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idiomfront:", err)
	os.Exit(1)
}
