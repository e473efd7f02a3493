// Package httpapi serves the idiomatic.Service wire model over HTTP — the
// ROADMAP's network front door. The endpoints mirror the in-process
// streaming semantics exactly:
//
//	POST /v1/detect         single-shot JSON: body is one DetectRequest or an
//	                        array of them; the response carries every result
//	                        in submit order.
//	POST /v1/detect/stream  the same body, answered as NDJSON: one
//	                        DetectResult per line in completion order, each
//	                        carrying its submit-order sequence number
//	                        (idiomatic.Service.DetectStream).
//	POST /v1/match          the end-to-end pipeline: detect → transformation
//	                        plans → backend selection. Body is one
//	                        MatchRequest or an array; results in submit
//	                        order.
//	POST /v1/match/stream   the same body as NDJSON, one MatchResult per
//	                        line in completion order (the same sequence
//	                        semantics as /v1/detect/stream).
//	POST /v1/idioms         register an idiom pack ({"pack", "source",
//	                        "idioms": [{"top", ...}]}) — live, no rebuild.
//	GET  /v1/idioms         roster introspection (built-in roster plus
//	                        registered packs; ?pack=NAME for one pack).
//	GET  /v1/backends       heterogeneous API profiles and device models
//	                        backend selection ranks over.
//	GET  /v1/clients        admin surface: authenticated clients with weights
//	                        and live fairness gauges (admin key required).
//	GET  /v1/memo/snapshot  admin surface: stream the replica's durable warm
//	                        state (packs + memo blobs) as NDJSON for a booting
//	                        replica's -warm-from (requires -state-dir).
//	GET  /healthz           liveness.
//	GET  /statsz            versioned idiomatic.StatsResponse: queue depth,
//	                        worker utilization, memo hit rate, per-client
//	                        fairness rows.
//
// Multi-tenant serving: NewServer with Options.Keys enables API-key auth
// (static keyfile, idiomd -keys); authenticated requests carry their tenant
// identity into the service's weighted-fair intake. The X-Deadline-Ms
// request header (or the deadline_ms body field) bounds a request's total
// latency — expiry sheds queued work and aborts constraint solving
// mid-search, reported in-band per module, never as a torn stream.
//
// Every non-2xx response is the v1 error envelope
// {"error":{"code","message","retry_after_ms?"}} (idiomatic.ErrorEnvelope).
// Intake overload maps to 429 "overloaded" with a Retry-After hint; a batch
// larger than the queue limit is 429 "batch_too_large" WITHOUT Retry-After
// (split it — retrying cannot succeed); token-bucket rejections are 429
// "rate_limited" with the bucket's refill hint. Unknown pack, idiom or
// target device is 400, never an empty 200; cancelled client connections
// propagate as context cancellation into the service, shedding the
// request's remaining compile and solver work.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/idiomatic"
)

// maxBodyBytes bounds request bodies; legacy sources a detection service
// ingests are text files, not gigabytes.
const maxBodyBytes = 16 << 20

// Options configure the HTTP front door beyond the service it serves.
type Options struct {
	// Keys enables API-key auth: every /v1/* request must present a known
	// key (Authorization: Bearer <key> or X-API-Key) and runs under its
	// tenant identity; /healthz and /statsz stay open. Nil disables auth —
	// all traffic is the anonymous tier.
	Keys *Keyring
}

// New returns the HTTP handler serving svc with no auth (anonymous tier).
func New(svc *idiomatic.Service) http.Handler { return NewServer(svc, Options{}) }

// NewServer returns the HTTP handler serving svc under the given options.
func NewServer(svc *idiomatic.Service, o Options) http.Handler {
	mux := http.NewServeMux()
	detectDeadline := func(q *idiomatic.DetectRequest) *int64 { return &q.DeadlineMs }
	matchDeadline := func(q *idiomatic.MatchRequest) *int64 { return &q.DeadlineMs }
	mux.HandleFunc("/v1/detect", Methods(map[string]http.HandlerFunc{
		http.MethodPost: serveBatch(svc.DetectBatch, detectDeadline),
	}))
	mux.HandleFunc("/v1/detect/stream", Methods(map[string]http.HandlerFunc{
		http.MethodPost: serveStream(svc.DetectStream, detectDeadline),
	}))
	mux.HandleFunc("/v1/match", Methods(map[string]http.HandlerFunc{
		http.MethodPost: serveBatch(svc.MatchBatch, matchDeadline),
	}))
	mux.HandleFunc("/v1/match/stream", Methods(map[string]http.HandlerFunc{
		http.MethodPost: serveStream(svc.MatchStream, matchDeadline),
	}))
	mux.HandleFunc("/v1/idioms", Methods(map[string]http.HandlerFunc{
		http.MethodPost: func(w http.ResponseWriter, r *http.Request) { handleRegisterPack(svc, w, r) },
		http.MethodGet:  func(w http.ResponseWriter, r *http.Request) { handleIdioms(svc, w, r) },
	}))
	mux.HandleFunc("/v1/backends", Methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]any{
				"devices":  svc.DevicePlatforms(),
				"backends": svc.Backends(),
			})
		},
	}))
	mux.HandleFunc("/v1/clients", Methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) { handleClients(svc, o.Keys, w, r) },
	}))
	mux.HandleFunc("/v1/memo/snapshot", Methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) { handleMemoSnapshot(svc, o.Keys, w, r) },
	}))
	mux.HandleFunc("/healthz", Methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
		},
	}))
	mux.HandleFunc("/statsz", Methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, svc.Stats())
		},
	}))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, idiomatic.CodeNotFound,
			fmt.Sprintf("no such endpoint %s", r.URL.Path))
	})
	var h http.Handler = mux
	if o.Keys != nil {
		h = authenticate(o.Keys, h)
	}
	return h
}

// Methods dispatches on the request method, answering anything unlisted with
// the enveloped 405 (HEAD rides a GET registration, as with Go's mux).
func Methods(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := r.Method
		if m == http.MethodHead {
			m = http.MethodGet
		}
		if fn, ok := handlers[m]; ok {
			fn(w, r)
			return
		}
		WriteError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
	}
}

func handleIdioms(svc *idiomatic.Service, w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("pack"); name != "" {
		pack, ok := svc.PackByName(name)
		if !ok {
			WriteError(w, http.StatusNotFound, idiomatic.CodeNotFound, fmt.Sprintf("unknown pack %q", name))
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"pack": pack})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"idioms":        svc.Idioms(),
		"library_lines": idiomatic.LibraryLineCount(),
		"packs":         svc.Packs(),
	})
}

// ClientInfo is one row of the GET /v1/clients admin listing: the keyring
// identity joined with the live fairness gauges of the service (zero gauges
// for a client that has not sent traffic yet).
type ClientInfo struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	Admin  bool   `json:"admin,omitempty"`
	// Live usage, mirroring idiomatic.ClientStatsRow.
	InFlight   int64 `json:"in_flight"`
	ReadyQueue int   `json:"ready_queue"`
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
}

// handleClients serves the admin listing. It is gated twice: the surface
// requires auth to be enabled at all (401 otherwise — there are no clients
// to list on an anonymous server) and the presented key must carry the
// admin role (403 otherwise).
func handleClients(svc *idiomatic.Service, kr *Keyring, w http.ResponseWriter, r *http.Request) {
	if kr == nil {
		WriteError(w, http.StatusUnauthorized, idiomatic.CodeUnauthenticated,
			"client listing requires API-key auth (idiomd -keys)")
		return
	}
	cl, _ := idiomatic.ClientFromContext(r.Context())
	if !cl.Admin {
		WriteError(w, http.StatusForbidden, idiomatic.CodeForbidden,
			fmt.Sprintf("client %q lacks the admin role", cl.Name))
		return
	}
	rows := map[string]idiomatic.ClientStatsRow{}
	for _, row := range svc.Stats().Clients {
		rows[row.Name] = row
	}
	out := []ClientInfo{}
	for _, known := range kr.Clients() {
		info := ClientInfo{Name: known.Name, Weight: known.Weight, Admin: known.Admin}
		if row, ok := rows[known.Name]; ok {
			info.Weight = row.Weight
			info.InFlight = row.InFlight
			info.ReadyQueue = row.ReadyQueue
			info.Served = row.Served
			info.Shed = row.Shed
		}
		out = append(out, info)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"clients": out})
}

// handleMemoSnapshot streams the replica's durable warm state (packs + memo
// blobs) as NDJSON — the warm-handoff source a booting replica's -warm-from
// ingests. On a server with auth enabled the key must carry the admin role
// (the snapshot exposes every tenant's solved shapes); without auth the
// surface is open like the rest of the API. 404 without a state dir.
func handleMemoSnapshot(svc *idiomatic.Service, kr *Keyring, w http.ResponseWriter, r *http.Request) {
	if kr != nil {
		cl, _ := idiomatic.ClientFromContext(r.Context())
		if !cl.Admin {
			WriteError(w, http.StatusForbidden, idiomatic.CodeForbidden,
				fmt.Sprintf("client %q lacks the admin role", cl.Name))
			return
		}
	}
	if !svc.StoreEnabled() {
		WriteError(w, http.StatusNotFound, idiomatic.CodeNotFound,
			"memo snapshots require a durable state dir (idiomd -state-dir)")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Mid-stream failures surface as a truncated body; the ingest side
	// rejects torn NDJSON, so a partial snapshot is never half-applied.
	_ = svc.WriteMemoSnapshot(w)
}

// ReadBody reads the (bounded) request body. On failure it has already
// answered with the error envelope: 413 for an oversize body, 400 for any
// other read error.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteError(w, http.StatusRequestEntityTooLarge, idiomatic.CodeBodyTooLarge,
				fmt.Sprintf("body exceeds %d bytes", mbe.Limit))
			return nil, false
		}
		badRequest(w, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

// DecodeBatch accepts either a single request object or a JSON array of
// them, so `curl -d '{"name":...,"source":...}'` works without batch
// ceremony, and applies the X-Deadline-Ms header to every request whose
// deadline (read and written through deadline) is unset. It serves both the
// detect and the match endpoints, here and in the fleet front. On failure it
// has already answered with the error envelope.
func DecodeBatch[Q any](w http.ResponseWriter, r *http.Request, deadline func(*Q) *int64) ([]Q, bool) {
	body, ok := ReadBody(w, r)
	if !ok {
		return nil, false
	}
	var reqs []Q
	body = bytes.TrimLeft(body, " \t\r\n")
	if len(body) > 0 && body[0] == '[' {
		if err := json.Unmarshal(body, &reqs); err != nil {
			badRequest(w, fmt.Errorf("invalid request array: %w", err))
			return nil, false
		}
		if len(reqs) == 0 {
			badRequest(w, errors.New("empty request batch"))
			return nil, false
		}
	} else {
		var req Q
		if err := json.Unmarshal(body, &req); err != nil {
			badRequest(w, fmt.Errorf("invalid request: %w", err))
			return nil, false
		}
		reqs = []Q{req}
	}
	ms, ok := deadlineHeader(w, r)
	if !ok {
		return nil, false
	}
	for i := range reqs {
		if d := deadline(&reqs[i]); *d == 0 {
			*d = ms
		}
	}
	return reqs, true
}

// deadlineHeader parses the optional X-Deadline-Ms request header. The
// header is the whole-request default; a request body's own deadline_ms
// field takes precedence per entry.
func deadlineHeader(w http.ResponseWriter, r *http.Request) (int64, bool) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return 0, true
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		badRequest(w, fmt.Errorf("invalid X-Deadline-Ms %q (want a positive integer)", h))
		return 0, false
	}
	return ms, true
}

// serveBatch answers a single-shot batch endpoint: the decoded requests run
// through run (a Service batch method) and every result is returned in
// submit order under "results".
func serveBatch[Q, R any](run func(context.Context, []Q) ([]R, error), deadline func(*Q) *int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqs, ok := DecodeBatch(w, r, deadline)
		if !ok {
			return
		}
		results, err := run(r.Context(), reqs)
		if err != nil {
			intakeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"results": results})
	}
}

// serveStream answers an NDJSON endpoint: the decoded requests run through
// run (a Service stream method), the 200 headers are flushed as soon as
// intake accepts the batch, and each result is written and flushed as one
// line the moment it completes.
func serveStream[Q, R any](run func(context.Context, []Q) (<-chan R, error), deadline func(*Q) *int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqs, ok := DecodeBatch(w, r, deadline)
		if !ok {
			return
		}
		ch, err := run(r.Context(), reqs)
		if err != nil {
			intakeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			flusher.Flush()
		}
		enc := json.NewEncoder(w)
		for res := range ch {
			if err := enc.Encode(res); err != nil {
				// Client gone; the request context cancellation already sheds
				// the remaining work. Keep draining so the channel's senders
				// finish.
				continue
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// packRequest is the POST /v1/idioms body.
type packRequest struct {
	Pack   string              `json:"pack"`
	Source string              `json:"source"`
	Idioms []idiomatic.TopSpec `json:"idioms"`
}

// handleRegisterPack installs an idiom pack. Validation (IDL parse, top
// constraint resolution, Prepare) is idiomatic.Service.RegisterPack — the
// same code path `idlc -pack` runs, so CLI and HTTP report identical errors.
func handleRegisterPack(svc *idiomatic.Service, w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var req packRequest
	if err := json.Unmarshal(body, &req); err != nil {
		badRequest(w, fmt.Errorf("invalid pack registration: %w", err))
		return
	}
	info, err := svc.RegisterPack(req.Pack, req.Source, req.Idioms)
	if err != nil {
		badRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"pack": info})
}

// intakeError maps service intake failures onto the error envelope. The
// three 429 flavors are distinct codes: "batch_too_large" (no Retry-After —
// the batch can never fit, split it), "rate_limited" (the client's token
// bucket is empty; retry after its refill hint) and "overloaded" (the queue
// is transiently full; back off briefly). Closed is 503, anything else
// (invalid request) is 400.
func intakeError(w http.ResponseWriter, err error) {
	var rl *idiomatic.RateLimitedError
	switch {
	case errors.Is(err, idiomatic.ErrBatchTooLarge):
		WriteError(w, http.StatusTooManyRequests, idiomatic.CodeBatchTooLarge, err.Error())
	case errors.As(err, &rl):
		writeErrorRetry(w, http.StatusTooManyRequests, idiomatic.CodeRateLimited, err.Error(), rl.RetryAfter)
	case errors.Is(err, idiomatic.ErrOverloaded):
		writeErrorRetry(w, http.StatusTooManyRequests, idiomatic.CodeOverloaded, err.Error(), time.Second)
	case errors.Is(err, idiomatic.ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, err.Error())
	default:
		badRequest(w, err)
	}
}

func badRequest(w http.ResponseWriter, err error) {
	WriteError(w, http.StatusBadRequest, idiomatic.CodeInvalidRequest, err.Error())
}

// WriteError writes the v1 error envelope with no retry hint.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, idiomatic.ErrorEnvelope{Error: idiomatic.ErrorBody{Code: code, Message: message}})
}

// writeErrorRetry writes the v1 error envelope with a retry hint: the
// millisecond-precision retry_after_ms field plus the legacy whole-second
// Retry-After header (rounded up, so header-only clients never retry early).
func writeErrorRetry(w http.ResponseWriter, status int, code, message string, retry time.Duration) {
	ms := retry.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	secs := (ms + 999) / 1000
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, status, idiomatic.ErrorEnvelope{Error: idiomatic.ErrorBody{
		Code: code, Message: message, RetryAfterMs: ms,
	}})
}

// WriteJSON writes v as two-space-indented JSON, the formatting of every
// single-shot response, so responses stay byte-comparable across a fleet
// front.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
