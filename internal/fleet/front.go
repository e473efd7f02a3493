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
// same way deadline expiry is — never as a torn response. A replica reply
// that skips, repeats or mis-numbers a result is repaired the same way:
// every request gets exactly one result. Body bounds, error envelopes and
// method dispatch are internal/httpapi's own, so the front rejects a request
// with the same status and envelope a replica would.
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
	"repro/internal/httpapi"
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
	detect := func(r *idiomatic.DetectResult) *idiomatic.DetectResult { return r }
	match := func(r *idiomatic.MatchResult) *idiomatic.DetectResult { return &r.DetectResult }
	post := func(h http.HandlerFunc) http.HandlerFunc {
		return httpapi.Methods(map[string]http.HandlerFunc{http.MethodPost: h})
	}
	get := func(h http.HandlerFunc) http.HandlerFunc {
		return httpapi.Methods(map[string]http.HandlerFunc{http.MethodGet: h})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", post(proxyBatch(f, "/v1/detect", detect)))
	mux.HandleFunc("/v1/match", post(proxyBatch(f, "/v1/match", match)))
	mux.HandleFunc("/v1/detect/stream", post(proxyStream(f, "/v1/detect/stream", detect)))
	mux.HandleFunc("/v1/match/stream", post(proxyStream(f, "/v1/match/stream", match)))
	mux.HandleFunc("/v1/idioms", httpapi.Methods(map[string]http.HandlerFunc{
		http.MethodPost: f.broadcastPack,
		http.MethodGet:  f.relayFirstLive,
	}))
	mux.HandleFunc("/v1/backends", get(f.relayFirstLive))
	mux.HandleFunc("/v1/clients", get(f.aggregateClients))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		live := len(f.live())
		status := http.StatusOK
		if live == 0 {
			status = http.StatusServiceUnavailable
		}
		httpapi.WriteJSON(w, status, map[string]any{"ok": live > 0, "live": live, "replicas": len(f.replicas)})
	})
	mux.HandleFunc("/statsz", f.aggregateStats)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, http.StatusNotFound, idiomatic.CodeNotFound, fmt.Sprintf("no such endpoint %s", r.URL.Path))
	})
	return mux
}

// --- batch routing ---

// routedItem is one request of a batch: its raw JSON, the name that labels
// its in-band errors, its routed owner and its global submit index.
type routedItem struct {
	raw    json.RawMessage
	name   string
	owner  int
	global int
}

// routePeek is the subset of a request the router reads. Source drives the
// ring placement; Name labels in-band failover errors.
type routePeek struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// decodeRouted splits the request body (one object or an array — the same
// contract, body bound and error envelopes as the replicas) into routable
// items.
func (f *Front) decodeRouted(w http.ResponseWriter, r *http.Request) ([]routedItem, bool) {
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return nil, false
	}
	body = bytes.TrimLeft(body, " \t\r\n")
	var raws []json.RawMessage
	if len(body) > 0 && body[0] == '[' {
		if err := json.Unmarshal(body, &raws); err != nil {
			invalid(w, fmt.Sprintf("invalid request array: %v", err))
			return nil, false
		}
		if len(raws) == 0 {
			invalid(w, "empty request batch")
			return nil, false
		}
	} else {
		raws = []json.RawMessage{json.RawMessage(body)}
	}
	items := make([]routedItem, len(raws))
	for i, raw := range raws {
		var peek routePeek
		if err := json.Unmarshal(raw, &peek); err != nil {
			invalid(w, fmt.Sprintf("invalid request: %v", err))
			return nil, false
		}
		name := peek.Name
		if name == "" {
			name = "input.c"
		}
		owner := f.candidates(RouteKey(peek.Source))[0]
		items[i] = routedItem{raw: raw, name: name, owner: owner, global: i}
	}
	return items, true
}

func invalid(w http.ResponseWriter, msg string) {
	httpapi.WriteError(w, http.StatusBadRequest, idiomatic.CodeInvalidRequest, msg)
}

// groupByReplica buckets items by their routed owner, preserving submit
// order inside each bucket (sub-batch seq = index in bucket).
func groupByReplica(items []routedItem) map[int][]routedItem {
	groups := map[int][]routedItem{}
	for _, it := range items {
		groups[it.owner] = append(groups[it.owner], it)
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

// delivery makes one routed group answer exactly one result per item, for
// the batch and the stream path alike. R is the endpoint's wire result type
// and core reaches its embedded DetectResult: the field deliver re-sequences
// and the one miss fills with an in-band error.
type delivery[R any] struct {
	group     []routedItem
	core      func(*R) *idiomatic.DetectResult
	emit      func(R)
	delivered []bool
}

func newDelivery[R any](group []routedItem, core func(*R) *idiomatic.DetectResult, emit func(R)) *delivery[R] {
	return &delivery[R]{group: group, core: core, emit: emit, delivered: make([]bool, len(group))}
}

// deliver decodes one replica result, rewrites its sub-batch seq to the
// global submit index and emits it. Malformed results, out-of-range seqs and
// repeats of a delivered seq are dropped.
func (d *delivery[R]) deliver(raw []byte) {
	var res R
	if json.Unmarshal(raw, &res) != nil {
		return
	}
	dr := d.core(&res)
	sub := dr.Seq
	if sub < 0 || sub >= len(d.group) || d.delivered[sub] {
		return
	}
	d.delivered[sub] = true
	dr.Seq = d.group[sub].global
	d.emit(res)
}

// miss emits an in-band error result, named after its request, for every
// item not delivered yet.
func (d *delivery[R]) miss(msg string) {
	for sub, it := range d.group {
		if !d.delivered[sub] {
			d.delivered[sub] = true
			var res R
			*d.core(&res) = idiomatic.DetectResult{Seq: it.global, Name: it.name, Err: msg}
			d.emit(res)
		}
	}
}

// relayed is a replica's non-200 answer to a sub-batch, passed through
// verbatim.
type relayed struct {
	status      int
	contentType string
	body        []byte
}

// proxyBatch serves POST /v1/detect and /v1/match: split, forward, merge in
// global submit order. A replica answering non-200 for its sub-batch fails
// the whole request with that replica's envelope relayed verbatim (the same
// all-or-nothing contract a single replica gives a batch); an unreachable
// shard degrades in-band per module instead.
func proxyBatch[R any](f *Front, path string, core func(*R) *idiomatic.DetectResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		items, ok := f.decodeRouted(w, r)
		if !ok {
			return
		}
		merged := make([]R, len(items))
		// Indexed by each group's first global seq, so the failing group
		// holding the earliest submitted request wins deterministically.
		relays := make([]*relayed, len(items))
		var wg sync.WaitGroup
		for owner, group := range groupByReplica(items) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				emit := func(res R) { merged[core(&res).Seq] = res }
				relays[group[0].global] = runGroup(r.Context(), f, owner, group, path, r.Header, newDelivery(group, core, emit))
			}()
		}
		wg.Wait()
		for _, rl := range relays {
			if rl != nil {
				relay(w, rl.status, rl.contentType, rl.body)
				return
			}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": merged})
	}
}

// runGroup forwards one bucket and delivers its results, with an in-band
// error for every item the replica's reply lacks (or for all of them when no
// replica was reachable). A non-200 reply is returned for relaying instead.
func runGroup[R any](ctx context.Context, f *Front, owner int, group []routedItem, path string, hdr http.Header, d *delivery[R]) *relayed {
	resp, err := f.forwardGroup(ctx, owner, path, hdr, encodeGroup(group))
	if err != nil {
		d.miss("fleet: no replica reachable: " + err.Error())
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.miss("fleet: reading replica response: " + err.Error())
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return &relayed{resp.StatusCode, resp.Header.Get("Content-Type"), body}
	}
	var envelope struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		d.miss("fleet: malformed replica response")
		return nil
	}
	for _, raw := range envelope.Results {
		d.deliver(raw)
	}
	d.miss("fleet: replica response lacked this result")
	return nil
}

// proxyStream serves the NDJSON endpoints: every bucket streams from its
// replica concurrently, each line re-sequenced to the global submit index
// and flushed as it lands — completion order across the whole fleet, exactly
// the single-replica stream contract.
func proxyStream[R any](f *Front, path string, core func(*R) *idiomatic.DetectResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		items, ok := f.decodeRouted(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		var wmu sync.Mutex
		emit := func(res R) {
			wmu.Lock()
			defer wmu.Unlock()
			if enc.Encode(res) == nil && flusher != nil {
				flusher.Flush()
			}
		}
		var wg sync.WaitGroup
		for owner, group := range groupByReplica(items) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				streamGroup(r.Context(), f, owner, group, path, r.Header, newDelivery(group, core, emit))
			}()
		}
		wg.Wait()
	}
}

// streamGroup relays one bucket's replica stream line by line. Once the
// stream ends — broken, short or rejected — every item it did not deliver
// gets an in-band error, unless the client is gone.
func streamGroup[R any](ctx context.Context, f *Front, owner int, group []routedItem, path string, hdr http.Header, d *delivery[R]) {
	resp, err := f.forwardGroup(ctx, owner, path, hdr, encodeGroup(group))
	if err != nil {
		d.miss("fleet: no replica reachable: " + err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		d.miss(fmt.Sprintf("fleet: replica rejected sub-batch: %s: %s", resp.Status, bytes.TrimSpace(body)))
		return
	}
	dec := json.NewDecoder(resp.Body)
	msg := "fleet: replica stream ended without this result"
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if !errors.Is(err, io.EOF) {
				msg = "fleet: replica stream broke: " + err.Error()
			}
			break
		}
		d.deliver(raw)
	}
	if ctx.Err() != nil {
		return // the client is gone; nobody reads the errors
	}
	d.miss(msg)
}

// --- control-plane endpoints ---

// broadcastPack registers a pack on every replica: consistent-hash routing
// can land a pack's requests anywhere, so a registration that skipped a
// replica would surface as sporadic "unknown pack" errors. All-or-error:
// the first failing replica's envelope is relayed with its status.
func (f *Front) broadcastPack(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	live := f.live()
	if len(live) == 0 {
		httpapi.WriteError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
		return
	}
	var okBody []byte
	var okType string
	for _, idx := range live {
		resp, err := f.forward(r.Context(), idx, http.MethodPost, "/v1/idioms", r.Header, body)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadGateway, idiomatic.CodeUnavailable,
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

// relayFirstLive forwards a read-only request, path and query, to the first
// live replica (introspection data is identical fleet-wide once packs are
// broadcast).
func (f *Front) relayFirstLive(w http.ResponseWriter, r *http.Request) {
	for _, idx := range f.live() {
		resp, err := f.forward(r.Context(), idx, http.MethodGet, r.URL.RequestURI(), r.Header, nil)
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		return
	}
	httpapi.WriteError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
}

// aggregateClients sums each tenant's gauges across replicas, so fairness
// asserts (cmd/soak) read fleet-wide shares through the router. Replicas
// enforce auth themselves: the first non-200 (401/403) is relayed verbatim.
func (f *Front) aggregateClients(w http.ResponseWriter, r *http.Request) {
	live := f.live()
	if len(live) == 0 {
		httpapi.WriteError(w, http.StatusServiceUnavailable, idiomatic.CodeUnavailable, "fleet: no live replicas")
		return
	}
	sums := map[string]*httpapi.ClientInfo{}
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
			Clients []httpapi.ClientInfo `json:"clients"`
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
			acc.ReadyQueue += row.ReadyQueue
			acc.Served += row.Served
			acc.Shed += row.Shed
		}
	}
	out := make([]httpapi.ClientInfo, 0, len(order))
	for _, name := range order {
		out = append(out, *sums[name])
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"clients": out})
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
	for i, rep := range f.replicas {
		row := ReplicaStats{Addr: rep.base, Up: rep.up.Load()}
		resp, err := f.forward(r.Context(), i, http.MethodGet, "/statsz", r.Header, nil)
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
	httpapi.WriteJSON(w, http.StatusOK, out)
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
