// Command idiomd serves the paper's whole matching pipeline over HTTP —
// compile → idiom detection → transformation plans → backend selection —
// behind one long-lived idiomatic.Service with bounded intake, a versioned
// request/response model and a runtime-registerable idiom-pack registry.
//
// Usage:
//
//	idiomd                         # serve on :8173
//	idiomd -addr 127.0.0.1:9000    # explicit listen address
//	idiomd -j 8                    # solver worker count (0 = GOMAXPROCS)
//	idiomd -queue 512              # max in-flight modules before 429
//	idiomd -memo-max 65536         # solve-cache LRU bound (entries)
//	idiomd -keys keys.txt          # API-key auth (keyfile: "<key> <name> [weight] [admin]")
//	idiomd -client-queue 64        # per-client in-flight bound (named clients)
//	idiomd -client-rate 10         # per-client token bucket: rate*weight req/s
//	idiomd -slots 8                # admission slots: requests compiling or solving (fair-share gate)
//	idiomd -state-dir /var/idiomd  # durable warm state: memo spill + pack log
//	idiomd -state-dir d -warm-from http://replica:8173   # inherit a warm memo
//
// Endpoints:
//
//	POST /v1/detect          one DetectRequest (or an array) → results JSON
//	POST /v1/detect/stream   same body → NDJSON, one result per line as each
//	                         module's detection lands (sequence-numbered)
//	POST /v1/match           one MatchRequest (or an array) → detection plus
//	                         wire-encoded transformation plans and ranked
//	                         per-device backend estimates
//	POST /v1/match/stream    same body → NDJSON (detect/stream semantics)
//	POST /v1/idioms          register an idiom pack from IDL source — live,
//	                         no rebuild, no restart
//	GET  /v1/idioms          roster + pack introspection (?pack=NAME)
//	GET  /v1/backends        API profiles and device models
//	GET  /v1/clients         admin: authenticated clients + live fairness gauges
//	GET  /v1/memo/snapshot   admin: stream durable warm state (packs + memo
//	                         blobs) for another replica's -warm-from
//	GET  /healthz            liveness
//	GET  /statsz             versioned stats: queue depth, worker utilization,
//	                         memo hit rate, per-client fairness rows
//
// With -keys, every /v1/* request must present a known API key
// (Authorization: Bearer <key> or X-API-Key) and runs under that client's
// fair-share weight; without it the server serves the anonymous tier
// unauthenticated. Requests may bound their latency with the X-Deadline-Ms
// header (or deadline_ms body field); all non-2xx responses carry the v1
// error envelope {"error":{"code","message","retry_after_ms?"}}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/idiomatic"
	"repro/internal/httpapi"
)

func main() {
	addr := flag.String("addr", ":8173", "listen address")
	jobs := flag.Int("j", 0, "solver worker count (0 = GOMAXPROCS); compiles run inside admission slots")
	queue := flag.Int("queue", idiomatic.DefaultQueueLimit, "max in-flight modules before requests are shed with 429 (<0 = unbounded)")
	memoMax := flag.Int("memo-max", 0, "solve-cache LRU bound in entries (0 = default, <0 = unbounded)")
	noMemo := flag.Bool("no-memo", false, "disable solver memoization")
	maxPacks := flag.Int("packs-max", 0, "max distinct registered idiom-pack names (0 = default, <0 = unbounded)")
	keys := flag.String("keys", "", "API-key file enabling auth: one \"<key> <name> [weight] [admin]\" per line (empty = anonymous tier, no auth)")
	clientQueue := flag.Int("client-queue", 0, "per-client in-flight bound for named clients (0 = unbounded)")
	clientRate := flag.Float64("client-rate", 0, "per-client token bucket: rate*weight requests/sec for named clients (0 = unlimited)")
	clientBurst := flag.Float64("client-burst", 0, "per-client token-bucket burst capacity (0 = max(1, rate))")
	slots := flag.Int("slots", 0, "admission slots: requests compiling or solving at once, fair-shared across clients (0 = 2x workers; negative is rejected)")
	stateDir := flag.String("state-dir", "", "durable state directory: the solve memo spills to disk (build-cache semantics, warm restarts) and pack registrations are logged and replayed at boot (empty = in-memory only)")
	warmFrom := flag.String("warm-from", "", "base URL of a running replica to inherit warm state from at boot via GET /v1/memo/snapshot (requires -state-dir)")
	warmKey := flag.String("warm-key", "", "admin API key presented to the -warm-from replica (empty = unauthenticated)")
	flag.Parse()

	if *warmFrom != "" && *stateDir == "" {
		fatal(errors.New("-warm-from requires -state-dir (the inherited state needs somewhere to live)"))
	}

	var keyring *httpapi.Keyring
	if *keys != "" {
		var err error
		keyring, err = httpapi.LoadKeyring(*keys)
		if err != nil {
			fatal(err)
		}
	}

	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
		Workers:        *jobs,
		QueueLimit:     *queue,
		MemoMaxEntries: *memoMax,
		NoMemo:         *noMemo,
		MaxPacks:       *maxPacks,
		ClientQueue:    *clientQueue,
		ClientRate:     *clientRate,
		ClientBurst:    *clientBurst,
		DetectSlots:    *slots,
		StateDir:       *stateDir,
	})
	if err != nil {
		fatal(err)
	}

	if *warmFrom != "" {
		entries, packs, err := warmFromReplica(svc, *warmFrom, *warmKey)
		if err != nil {
			fatal(fmt.Errorf("warm-from %s: %w", *warmFrom, err))
		}
		fmt.Fprintf(os.Stderr, "idiomd: inherited %d memo entries, %d pack(s) from %s\n", entries, packs, *warmFrom)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.NewServer(svc, httpapi.Options{Keys: keyring}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	authMode := "anonymous (no auth)"
	if keyring != nil {
		authMode = fmt.Sprintf("API-key auth, %d client(s)", len(keyring.Clients()))
	}
	fmt.Fprintf(os.Stderr, "idiomd: serving on %s (queue limit %d, %s)\n", *addr, *queue, authMode)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: stop intake, let in-flight detections finish.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "idiomd: shutdown:", err)
		}
		svc.Close()
	}
}

// warmFromReplica fetches a running replica's memo snapshot and ingests it
// into this process's state dir, so the fresh replica starts with the
// donor's warm memo (and its packs) instead of re-solving the world.
func warmFromReplica(svc *idiomatic.Service, baseURL, key string) (entries, packs int, err error) {
	url := strings.TrimRight(baseURL, "/") + "/v1/memo/snapshot"
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := (&http.Client{Timeout: 5 * time.Minute}).Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("snapshot returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return svc.IngestMemoSnapshot(resp.Body)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idiomd:", err)
	os.Exit(1)
}
