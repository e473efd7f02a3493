// Package fleet is the consistent-hash front door that turns N idiomd
// replicas into one service (cmd/idiomfront). Requests are routed by module
// identity — the SHA-256 of the request's source text — so every module
// lands on the same replica run after run, keeping each shard's solve memo
// (and its disk spill) hot. The front forwards the v1 wire model untouched:
// auth headers, deadlines and NDJSON sequence numbering all mean exactly
// what they mean against a single replica.
//
//	POST /v1/detect|match          batches are split per routed replica,
//	                               forwarded as sub-batches, and merged back
//	                               in global submit order.
//	POST /v1/detect|match/stream   sub-streams run concurrently; each line's
//	                               seq is rewritten to the global submit
//	                               index, so reassembling by seq reproduces
//	                               the batch order exactly as with one
//	                               replica.
//	POST /v1/idioms                broadcast to every live replica (a pack
//	                               must exist wherever its requests land).
//	GET  /v1/idioms|/v1/backends   answered by the first live replica.
//	GET  /v1/clients               per-tenant gauges aggregated (summed)
//	                               across replicas.
//	GET  /statsz                   per-replica StatsResponse plus fleet sums.
//	GET  /healthz                  200 while at least one replica is live.
//
// Replicas are health-checked in the background; a replica that fails a
// forward is marked down immediately and retried by the prober. A routed
// group fails over to the next replica on the ring, and when every replica
// is down the outcome is reported in-band per module (the Err field), the
// same way deadline expiry is — never as a torn response.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/idiomatic"
)

// Options configure a Front.
type Options struct {
	// Replicas are the idiomd base URLs (e.g. http://127.0.0.1:8173). At
	// least one is required; the set is static for the front's lifetime.
	Replicas []string
	// Vnodes is the number of ring points per replica (default 64): enough
	// that the module space splits near-evenly even with two replicas.
	Vnodes int
	// HealthInterval is the background probe period (default 2s).
	HealthInterval time.Duration
	// Client issues the forwarded requests. Default: no timeout (streams
	// are long-lived; cancellation rides the caller's request context).
	Client *http.Client
}

// Front is the router. Create with New, serve Handler, release with Close.
type Front struct {
	replicas []*replica
	ring     []ringNode
	client   *http.Client
	probe    *http.Client

	stop chan struct{}
	wg   sync.WaitGroup
}

type replica struct {
	base string
	up   atomic.Bool
}

// ringNode is one vnode: a hash point owned by a replica index.
type ringNode struct {
	hash uint64
	idx  int
}

// DefaultVnodes is the per-replica ring-point count.
const DefaultVnodes = 64

// New builds a front over the given replica base URLs. Replicas start
// optimistically live (the first failed forward or probe marks them down),
// so a fleet boots without waiting a probe period.
func New(o Options) (*Front, error) {
	if len(o.Replicas) == 0 {
		return nil, errors.New("fleet: at least one replica required")
	}
	vnodes := o.Vnodes
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	interval := o.HealthInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Front{
		client: client,
		probe:  &http.Client{Timeout: interval},
		stop:   make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, base := range o.Replicas {
		for len(base) > 0 && base[len(base)-1] == '/' {
			base = base[:len(base)-1]
		}
		if base == "" || seen[base] {
			return nil, fmt.Errorf("fleet: empty or duplicate replica %q", base)
		}
		seen[base] = true
		rep := &replica{base: base}
		rep.up.Store(true)
		f.replicas = append(f.replicas, rep)
	}
	for i, rep := range f.replicas {
		for v := 0; v < vnodes; v++ {
			f.ring = append(f.ring, ringNode{hash: point(rep.base + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(f.ring, func(a, b int) bool { return f.ring[a].hash < f.ring[b].hash })
	f.wg.Add(1)
	go f.healthLoop(interval)
	return f, nil
}

// Close stops the health prober.
func (f *Front) Close() {
	close(f.stop)
	f.wg.Wait()
}

func point(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// RouteKey hashes a module's source text onto the ring — name is excluded
// deliberately, so renaming a module keeps hitting the replica whose memo
// already holds its shape.
func RouteKey(source string) uint64 {
	h := sha256.Sum256([]byte(source))
	return binary.BigEndian.Uint64(h[:8])
}

// candidates returns replica indices in ring-preference order for a key:
// the owner first, then each distinct successor — the failover sequence.
func (f *Front) candidates(key uint64) []int {
	start := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= key })
	out := make([]int, 0, len(f.replicas))
	seen := make([]bool, len(f.replicas))
	for i := 0; i < len(f.ring) && len(out) < len(f.replicas); i++ {
		idx := f.ring[(start+i)%len(f.ring)].idx
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// Route reports which replica base URL a source text routes to (ignoring
// liveness) — exposed for tests and for operators debugging shard locality.
func (f *Front) Route(source string) string {
	return f.replicas[f.candidates(RouteKey(source))[0]].base
}

func (f *Front) healthLoop(interval time.Duration) {
	defer f.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			for _, rep := range f.replicas {
				resp, err := f.probe.Get(rep.base + "/healthz")
				ok := err == nil && resp.StatusCode == http.StatusOK
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				rep.up.Store(ok)
			}
		}
	}
}

// CheckNow probes every replica once, synchronously — used by tests and at
// idiomfront boot so the first request doesn't pay for a dead replica.
func (f *Front) CheckNow() {
	for _, rep := range f.replicas {
		resp, err := f.probe.Get(rep.base + "/healthz")
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rep.up.Store(ok)
	}
}

func (f *Front) live() []int {
	var out []int
	for i, rep := range f.replicas {
		if rep.up.Load() {
			out = append(out, i)
		}
	}
	return out
}

// forwardHeaders are the request headers the front relays: tenant identity,
// deadline, and content negotiation. Everything else is hop-local.
var forwardHeaders = []string{"Authorization", "X-Api-Key", "X-Deadline-Ms", "Content-Type", "Accept"}

func copyHeaders(dst http.Header, src http.Header) {
	for _, h := range forwardHeaders {
		if v := src.Values(h); len(v) > 0 {
			dst[http.CanonicalHeaderKey(h)] = v
		}
	}
}

// forward issues one request to a replica, relaying the caller's identity
// headers and context. A transport-level failure marks the replica down.
func (f *Front) forward(ctx context.Context, idx int, method, path string, hdr http.Header, body []byte) (*http.Response, error) {
	rep := f.replicas[idx]
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.base+path, rd)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, hdr)
	resp, err := f.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.up.Store(false)
		}
		return nil, err
	}
	return resp, nil
}

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", func(w http.ResponseWriter, r *http.Request) {
		proxyBatch(f, w, r, "/v1/detect", detectCodec{})
	})
	mux.HandleFunc("/v1/match", func(w http.ResponseWriter, r *http.Request) {
		proxyBatch(f, w, r, "/v1/match", matchCodec{})
	})
	mux.HandleFunc("/v1/detect/stream", func(w http.ResponseWriter, r *http.Request) {
		proxyStream(f, w, r, "/v1/detect/stream", detectCodec{})
	})
	mux.HandleFunc("/v1/match/stream", func(w http.ResponseWriter, r *http.Request) {
		proxyStream(f, w, r, "/v1/match/stream", matchCodec{})
	})
	mux.HandleFunc("/v1/idioms", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			f.broadcastPack(w, r)
		case http.MethodGet, http.MethodHead:
			f.relayFirstLive(w, r, "/v1/idioms")
		default:
			writeFrontError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
		}
	})
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		f.relayFirstLive(w, r, "/v1/backends")
	})
	mux.HandleFunc("/v1/clients", func(w http.ResponseWriter, r *http.Request) {
		f.aggregateClients(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		live := len(f.live())
		status := http.StatusOK
		if live == 0 {
			status = http.StatusServiceUnavailable
		}
		writeIndentedJSON(w, status, map[string]any{"ok": live > 0, "live": live, "replicas": len(f.replicas)})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		f.aggregateStats(w, r)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeFrontError(w, http.StatusNotFound, idiomatic.CodeNotFound, fmt.Sprintf("no such endpoint %s", r.URL.Path))
	})
	return mux
}

// --- batch routing ---

// routedItem is one request of a batch: its raw JSON, peeked routing fields,
// and its global submit index.
type routedItem struct {
	raw    json.RawMessage
	name   string
	global int
}

// routePeek is the subset of a request the router reads. Source drives the
// ring placement; Name labels in-band failover errors.
type routePeek struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// resultCodec adapts the two wire result types to the router: decode a
// replica's result, rewrite its sub-batch seq to the global one, and
// fabricate in-band error results when no replica is reachable.
type resultCodec interface {
	// rewrite decodes one result, returning the value re-sequenced to
	// global and the sub-batch seq it carried.
	rewrite(raw []byte, globalOf func(sub int) int) (val any, sub int, err error)
	errResult(global int, name, msg string) any
}

type detectCodec struct{}

func (detectCodec) rewrite(raw []byte, globalOf func(int) int) (any, int, error) {
	var res idiomatic.DetectResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, err
	}
	sub := res.Seq
	res.Seq = globalOf(sub)
	return res, sub, nil
}

func (detectCodec) errResult(global int, name, msg string) any {
	return idiomatic.DetectResult{Seq: global, Name: name, Err: msg}
}

type matchCodec struct{}

func (matchCodec) rewrite(raw []byte, globalOf func(int) int) (any, int, error) {
	var res idiomatic.MatchResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, err
	}
	sub := res.Seq
	res.Seq = globalOf(sub)
	return res, sub, nil
}

func (matchCodec) errResult(global int, name, msg string) any {
	return idiomatic.MatchResult{DetectResult: idiomatic.DetectResult{Seq: global, Name: name, Err: msg}}
}

// decodeRouted splits the request body (one object or an array — the same
// contract as the replicas) into routable items.
func decodeRouted(w http.ResponseWriter, r *http.Request) ([]routedItem, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeFrontError(w, http.StatusRequestEntityTooLarge, idiomatic.CodeBodyTooLarge, err.Error())
		return nil, false
	}
	body = bytes.TrimLeft(body, " \t\r\n")
	var raws []json.RawMessage
	if len(body) > 0 && body[0] == '[' {
		if err := json.Unmarshal(body, &raws); err != nil {
			writeFrontError(w, http.StatusBadRequest, idiomatic.CodeInvalidRequest, fmt.Sprintf("invalid request array: %v", err))
			return nil, false
		}
		if len(raws) == 0 {
			writeFrontError(w, http.StatusBadRequest, idiomatic.CodeInvalidRequest, "empty request batch")
			return nil, false
		}
	} else {
		raws = []json.RawMessage{json.RawMessage(body)}
	}
	items := make([]routedItem, len(raws))
	for i, raw := range raws {
		var peek routePeek
		if err := json.Unmarshal(raw, &peek); err != nil {
			writeFrontError(w, http.StatusBadRequest, idiomatic.CodeInvalidRequest, fmt.Sprintf("invalid request: %v", err))
			return nil, false
		}
		name := peek.Name
		if name == "" {
			name = "input.c"
		}
		items[i] = routedItem{raw: raw, name: name, global: i}
	}
	return items, true
}

// groupByReplica buckets items by their routed owner, preserving submit
// order inside each bucket (sub-batch seq = index in bucket).
func (f *Front) groupByReplica(items []routedItem) map[int][]routedItem {
	groups := map[int][]routedItem{}
	for _, it := range items {
		var peek routePeek
		_ = json.Unmarshal(it.raw, &peek)
		owner := f.candidates(RouteKey(peek.Source))[0]
		groups[owner] = append(groups[owner], it)
	}
	return groups
}

// encodeGroup renders one bucket as the sub-batch array a replica receives.
func encodeGroup(items []routedItem) []byte {
	raws := make([]json.RawMessage, len(items))
	for i, it := range items {
		raws[i] = it.raw
	}
	body, _ := json.Marshal(raws)
	return body
}

// forwardGroup sends one bucket to its owner, failing over once per distinct
// replica along the ring. Returns the response of the first replica that
// answered (any status), or an error when none was reachable.
func (f *Front) forwardGroup(ctx context.Context, owner int, path string, hdr http.Header, body []byte) (*http.Response, error) {
	cands := f.candidates(f.ring[ownerRingStart(f, owner)].hash)
	// candidates() keyed off the owner's first vnode reproduces owner-first
	// order; make that explicit instead of depending on vnode layout.
	ordered := append([]int{owner}, without(cands, owner)...)
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, idx := range ordered {
			// First pass: live replicas only. Second pass: try everyone —
			// liveness is advisory and may be stale.
			if pass == 0 && !f.replicas[idx].up.Load() {
				continue
			}
			resp, err := f.forward(ctx, idx, http.MethodPost, path, hdr, body)
			if err == nil {
				return resp, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no replica reachable")
	}
	return nil, lastErr
}

func ownerRingStart(f *Front, owner int) int {
	for i, n := range f.ring {
		if n.idx == owner {
			return i
		}
	}
	return 0
}

func without(xs []int, drop int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

const maxBodyBytes = 16 << 20

// groupOutcome is one bucket's merged contribution to a single-shot reply.
type groupOutcome struct {
	firstGlobal int
	results     []any
	// relay holds a replica's non-200 response (status + body) to pass
	// through verbatim; nil when the group succeeded or failed in-band.
	relayStatus int
	relayBody   []byte
	relayType   string
}

// proxyBatch serves POST /v1/detect and /v1/match: split, forward, merge in
// global submit order. A replica answering non-200 for its sub-batch fails
// the whole request with that replica's envelope relayed verbatim (the same
// all-or-nothing contract a single replica gives a batch); an unreachable
// shard degrades in-band per module instead.
func proxyBatch(f *Front, w http.ResponseWriter, r *http.Request, path string, codec resultCodec) {
	if r.Method != http.MethodPost {
		writeFrontError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	items, ok := decodeRouted(w, r)
	if !ok {
		return
	}
	groups := f.groupByReplica(items)
	outcomes := make([]*groupOutcome, 0, len(groups))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for owner, group := range groups {
		owner, group := owner, group
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := f.runGroup(r.Context(), owner, group, path, r.Header, codec)
			mu.Lock()
			outcomes = append(outcomes, out)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Deterministic error precedence: the failing group containing the
	// earliest submitted request wins.
	sort.Slice(outcomes, func(a, b int) bool { return outcomes[a].firstGlobal < outcomes[b].firstGlobal })
	for _, out := range outcomes {
		if out.relayStatus != 0 {
			relay(w, out.relayStatus, out.relayType, out.relayBody)
			return
		}
	}
	merged := make([]any, len(items))
	for _, out := range outcomes {
		for _, res := range out.results {
			switch v := res.(type) {
			case idiomatic.DetectResult:
				merged[v.Seq] = v
			case idiomatic.MatchResult:
				merged[v.Seq] = v
			}
		}
	}
	writeIndentedJSON(w, http.StatusOK, map[string]any{"results": merged})
}

// runGroup forwards one bucket and decodes its results (or fabricates
// in-band errors when no replica was reachable).
func (f *Front) runGroup(ctx context.Context, owner int, group []routedItem, path string, hdr http.Header, codec resultCodec) *groupOutcome {
	out := &groupOutcome{firstGlobal: group[0].global}
	globalOf := func(sub int) int {
		if sub < 0 || sub >= len(group) {
			return -1
		}
		return group[sub].global
	}
	resp, err := f.forwardGroup(ctx, owner, path, hdr, encodeGroup(group))
	if err != nil {
		for _, it := range group {
			out.results = append(out.results, codec.errResult(it.global, it.name, "fleet: no replica reachable: "+err.Error()))
		}
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		for _, it := range group {
			out.results = append(out.results, codec.errResult(it.global, it.name, "fleet: reading replica response: "+err.Error()))
		}
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.relayStatus = resp.StatusCode
		out.relayBody = body
		out.relayType = resp.Header.Get("Content-Type")
		return out
	}
	var envelope struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || len(envelope.Results) != len(group) {
		for _, it := range group {
			out.results = append(out.results, codec.errResult(it.global, it.name, "fleet: malformed replica response"))
		}
		return out
	}
	for _, raw := range envelope.Results {
		val, sub, err := codec.rewrite(raw, globalOf)
		if err != nil || globalOf(sub) < 0 {
			out.results = append(out.results, codec.errResult(group[0].global, group[0].name, "fleet: malformed replica result"))
			continue
		}
		out.results = append(out.results, val)
	}
	return out
}

// proxyStream serves the NDJSON endpoints: every bucket streams from its
// replica concurrently, each line re-sequenced to the global submit index
// and flushed as it lands — completion order across the whole fleet, exactly
// the single-replica stream contract.
func proxyStream(f *Front, w http.ResponseWriter, r *http.Request, path string, codec resultCodec) {
	if r.Method != http.MethodPost {
		writeFrontError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	items, ok := decodeRouted(w, r)
	if !ok {
		return
	}
	groups := f.groupByReplica(items)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var wmu sync.Mutex
	emit := func(v any) {
		wmu.Lock()
		defer wmu.Unlock()
		if enc.Encode(v) == nil && flusher != nil {
			flusher.Flush()
		}
	}
	var wg sync.WaitGroup
	for owner, group := range groups {
		owner, group := owner, group
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.streamGroup(r.Context(), owner, group, path, r.Header, codec, emit)
		}()
	}
	wg.Wait()
}

func (f *Front) streamGroup(ctx context.Context, owner int, group []routedItem, path string, hdr http.Header, codec resultCodec, emit func(any)) {
	globalOf := func(sub int) int {
		if sub < 0 || sub >= len(group) {
			return -1
		}
		return group[sub].global
	}
	emitAllErr := func(msg string) {
		for _, it := range group {
			emit(codec.errResult(it.global, it.name, msg))
		}
	}
	resp, err := f.forwardGroup(ctx, owner, path, hdr, encodeGroup(group))
	if err != nil {
		emitAllErr("fleet: no replica reachable: " + err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		emitAllErr(fmt.Sprintf("fleet: replica rejected sub-batch: %s: %s", resp.Status, bytes.TrimSpace(body)))
		return
	}
	// Exactly one line per item: replica lines that are malformed, out of
	// range or repeat a delivered sub-seq are dropped, and every item the
	// replica never delivered gets an in-band error once its stream ends.
	dec := json.NewDecoder(resp.Body)
	delivered := make([]bool, len(group))
	msg := "fleet: replica stream ended without this result"
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if !errors.Is(err, io.EOF) {
				msg = "fleet: replica stream broke: " + err.Error()
			}
			break
		}
		val, sub, err := codec.rewrite(raw, globalOf)
		if err != nil || globalOf(sub) < 0 || delivered[sub] {
			continue
		}
		delivered[sub] = true
		emit(val)
	}
	if ctx.Err() != nil {
		return // the client is gone; nobody reads the errors
	}
	for sub, it := range group {
		if !delivered[sub] {
			emit(codec.errResult(it.global, it.name, msg))
		}
	}
}

// --- control-plane endpoints ---

// broadcastPack registers a pack on every replica: consistent-hash routing
// can land a pack's requests anywhere, so a registration that skipped a
// replica would surface as sporadic "unknown pack" errors. All-or-error:
// the first failing replica's envelope is relayed with its status.
func (f *Front) broadcastPack(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeFrontError(w, http.StatusRequestEntityTooLarge, idiomatic.CodeBodyTooLarge, err.Error())
		return
	}
	live := f.live()
	if len(live) == 0 {
		writeFrontError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
		return
	}
	var okBody []byte
	var okType string
	for _, idx := range live {
		resp, err := f.forward(r.Context(), idx, http.MethodPost, "/v1/idioms", r.Header, body)
		if err != nil {
			writeFrontError(w, http.StatusBadGateway, idiomatic.CodeUnavailable,
				fmt.Sprintf("fleet: registering on %s: %v", f.replicas[idx].base, err))
			return
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), rb)
			return
		}
		okBody, okType = rb, resp.Header.Get("Content-Type")
	}
	relay(w, http.StatusOK, okType, okBody)
}

// relayFirstLive forwards a read-only request to the first live replica
// (introspection data is identical fleet-wide once packs are broadcast).
func (f *Front) relayFirstLive(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeFrontError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	target := path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	for _, idx := range f.live() {
		resp, err := f.forward(r.Context(), idx, http.MethodGet, target, r.Header, nil)
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		return
	}
	writeFrontError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
}

// clientRow mirrors httpapi.ClientInfo for aggregation.
type clientRow struct {
	Name        string `json:"name"`
	Weight      int    `json:"weight"`
	Admin       bool   `json:"admin,omitempty"`
	InFlight    int64  `json:"in_flight"`
	IntakeQueue int    `json:"intake_queue"`
	ReadyQueue  int    `json:"ready_queue"`
	Served      int64  `json:"served"`
	Shed        int64  `json:"shed"`
}

// aggregateClients sums each tenant's gauges across replicas, so fairness
// asserts (cmd/soak) read fleet-wide shares through the router. Replicas
// enforce auth themselves: the first non-200 (401/403) is relayed verbatim.
func (f *Front) aggregateClients(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeFrontError(w, http.StatusMethodNotAllowed, idiomatic.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	live := f.live()
	if len(live) == 0 {
		writeFrontError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
		return
	}
	sums := map[string]*clientRow{}
	var order []string
	for _, idx := range live {
		resp, err := f.forward(r.Context(), idx, http.MethodGet, "/v1/clients", r.Header, nil)
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), body)
			return
		}
		var payload struct {
			Clients []clientRow `json:"clients"`
		}
		if json.Unmarshal(body, &payload) != nil {
			continue
		}
		for _, row := range payload.Clients {
			acc, ok := sums[row.Name]
			if !ok {
				cp := row
				sums[row.Name] = &cp
				order = append(order, row.Name)
				continue
			}
			acc.InFlight += row.InFlight
			acc.IntakeQueue += row.IntakeQueue
			acc.ReadyQueue += row.ReadyQueue
			acc.Served += row.Served
			acc.Shed += row.Shed
		}
	}
	out := make([]clientRow, 0, len(order))
	for _, name := range order {
		out = append(out, *sums[name])
	}
	writeIndentedJSON(w, http.StatusOK, map[string]any{"clients": out})
}

// FleetStatsSchemaVersion versions the aggregated /statsz payload.
const FleetStatsSchemaVersion = 1

// ReplicaStats is one replica's row in the aggregated /statsz.
type ReplicaStats struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
	// Stats is the replica's own versioned StatsResponse (absent when the
	// replica was unreachable at aggregation time).
	Stats *idiomatic.StatsResponse `json:"stats,omitempty"`
}

// FleetSums are the cross-replica totals of the headline gauges.
type FleetSums struct {
	InFlight     int   `json:"in_flight"`
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	MemoHits     int64 `json:"memo_hits"`
	MemoMisses   int64 `json:"memo_misses"`
	StoreEntries int64 `json:"store_entries"`
	SpillHits    int64 `json:"spill_hits"`
}

// FleetStatsResponse is the front's /statsz payload: fleet rollup plus every
// replica's full StatsResponse.
type FleetStatsResponse struct {
	Schema   int            `json:"schema"`
	Replicas int            `json:"fleet_replicas"`
	Live     int            `json:"fleet_live"`
	Sums     FleetSums      `json:"fleet_sums"`
	Rows     []ReplicaStats `json:"replicas"`
}

func (f *Front) aggregateStats(w http.ResponseWriter, r *http.Request) {
	out := FleetStatsResponse{Schema: FleetStatsSchemaVersion, Replicas: len(f.replicas)}
	for _, rep := range f.replicas {
		row := ReplicaStats{Addr: rep.base, Up: rep.up.Load()}
		resp, err := f.forward(r.Context(), indexOf(f.replicas, rep), http.MethodGet, "/statsz", r.Header, nil)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var stats idiomatic.StatsResponse
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &stats) == nil {
				row.Stats = &stats
				out.Sums.InFlight += stats.InFlight
				out.Sums.Submitted += stats.Submitted
				out.Sums.Completed += stats.Completed
				out.Sums.MemoHits += stats.Memo.Hits
				out.Sums.MemoMisses += stats.Memo.Misses
				out.Sums.StoreEntries += stats.Store.Entries
				out.Sums.SpillHits += stats.Store.SpillHits
			}
		}
		if row.Up {
			out.Live++
		}
		out.Rows = append(out.Rows, row)
	}
	writeIndentedJSON(w, http.StatusOK, out)
}

func indexOf(reps []*replica, rep *replica) int {
	for i, r := range reps {
		if r == rep {
			return i
		}
	}
	return 0
}

// --- response helpers ---

func relay(w http.ResponseWriter, status int, contentType string, body []byte) {
	if contentType == "" {
		contentType = "application/json"
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(body)
}

// writeFrontError emits the v1 error envelope the replicas use, so clients
// parse fleet-level failures with the same code they parse replica ones.
func writeFrontError(w http.ResponseWriter, status int, code, message string) {
	writeIndentedJSON(w, status, idiomatic.ErrorEnvelope{Error: idiomatic.ErrorBody{Code: code, Message: message}})
}

// writeIndentedJSON matches the replicas' response formatting (two-space
// indent), keeping single-shot responses byte-comparable across the fleet
// boundary.
func writeIndentedJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
