// Package fleet is the consistent-hash front door that turns N idiomd
// replicas into one service (cmd/idiomfront). Requests are routed by module
// identity — the SHA-256 of the request's source text — so every module
// lands on the same replica run after run, keeping each shard's solve memo
// (and its disk spill) hot. An answer through the front is byte-identical to
// a single replica's: auth headers, deadlines and NDJSON sequence numbering
// all mean exactly what they mean against a single replica.
//
//	POST /v1/detect|match[/stream] the body is decoded with the replicas' own
//	                               decoder (httpapi.DecodeBatch), split into
//	                               one group per routed replica, and every
//	                               group is forwarded to its replica's NDJSON
//	                               stream endpoint. Each line's seq is
//	                               rewritten to the global submit index; a
//	                               stream emits lines as they land, a batch
//	                               collects them in submit order.
//	POST /v1/idioms                broadcast to every live replica (a pack
//	                               must exist wherever its requests land).
//	GET  /v1/idioms|/v1/backends   answered by the first live replica.
//	GET  /v1/clients               per-tenant gauges aggregated (summed)
//	                               across replicas.
//	GET  /statsz                   per-replica StatsResponse plus fleet sums.
//	GET  /healthz                  200 while at least one replica is live.
//
// A routed request is rejected the way one replica rejects it. A body the
// decoder refuses gets the replica's status and envelope before any replica
// sees work. Once every group's replica has answered its headers, a non-200
// from any of them fails the whole request with that envelope relayed
// verbatim: the group holding the earliest submitted request wins and the
// other groups are cancelled, on batch and stream alike.
//
// Replicas are health-checked in the background; a replica that fails a
// forward is marked down immediately and retried by the prober. A routed
// group fails over along its owner's failover order (the owner, then each
// distinct replica met walking the ring on from it), and when every replica
// is down the outcome is reported in-band per module (the Err field), the
// same way deadline expiry is — never as a torn response. A replica stream
// that skips, repeats, mis-numbers, breaks off or ends short is repaired the
// same way: every request gets exactly one result. Control-plane GETs are
// bounded by the health interval, so a replica that stalls counts as
// unreachable instead of hanging them. Body bounds, error envelopes and
// method dispatch are internal/httpapi's own.
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
	// HealthInterval is the background probe period (default 2s). It also
	// bounds every control-plane GET the front sends a replica.
	HealthInterval time.Duration
}

// Front is the router. Create with New, serve Handler, release with Close.
type Front struct {
	replicas []*replica
	ring     []ringNode
	// failover[i] is the order a group owned by replica i tries replicas
	// in: i itself, then each distinct replica met walking the ring on from
	// i's first point.
	failover [][]int
	// probe sends health probes and control-plane GETs; its timeout is the
	// health interval. Routed groups and pack broadcasts go through
	// http.DefaultClient, with no timeout: streams are long-lived and
	// cancellation rides the caller's request context.
	probe *http.Client

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

// vnodes is the per-replica ring-point count: enough that the module space
// splits near-evenly even with two replicas.
const vnodes = 64

// New builds a front over the given replica base URLs. Replicas start
// optimistically live (the first failed forward or probe marks them down),
// so a fleet boots without waiting a probe period.
func New(o Options) (*Front, error) {
	if len(o.Replicas) == 0 {
		return nil, errors.New("fleet: at least one replica required")
	}
	interval := o.HealthInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	f := &Front{
		probe: &http.Client{Timeout: interval},
		stop:  make(chan struct{}),
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
			f.ring = append(f.ring, ringNode{hash: RouteKey(rep.base + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(f.ring, func(a, b int) bool { return f.ring[a].hash < f.ring[b].hash })
	f.failover = make([][]int, len(f.replicas))
	for start, n := range f.ring {
		if f.failover[n.idx] != nil {
			continue // not the replica's first point
		}
		order := make([]int, 0, len(f.replicas))
		met := make([]bool, len(f.replicas))
		for i := start; len(order) < len(f.replicas); i++ {
			if idx := f.ring[i%len(f.ring)].idx; !met[idx] {
				met[idx] = true
				order = append(order, idx)
			}
		}
		f.failover[n.idx] = order
	}
	f.wg.Add(1)
	go f.healthLoop(interval)
	return f, nil
}

// Close stops the health prober.
func (f *Front) Close() {
	close(f.stop)
	f.wg.Wait()
}

// RouteKey hashes a string onto the ring. A module routes on its source text
// — name is excluded deliberately, so renaming a module keeps hitting the
// replica whose memo already holds its shape — and a ring point on its
// replica's base URL and vnode number.
func RouteKey(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// owner returns the index of the replica owning a key: the one holding the
// first ring point at or after it, wrapping around.
func (f *Front) owner(key uint64) int {
	i := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= key })
	return f.ring[i%len(f.ring)].idx
}

// Route reports which replica base URL a source text routes to (ignoring
// liveness) — exposed for tests and for operators debugging shard locality.
func (f *Front) Route(source string) string {
	return f.replicas[f.owner(RouteKey(source))].base
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
			f.CheckNow()
		}
	}
}

// CheckNow probes every replica once, synchronously — the health loop's
// tick, also run by tests and at idiomfront boot so the first request
// doesn't pay for a dead replica.
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
// headers and context. A GET goes through the probe client, so a replica that
// stalls fails it within the health interval. A transport-level failure marks
// the replica down.
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
	client := http.DefaultClient
	if method == http.MethodGet {
		client = f.probe
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.up.Store(false)
		}
		return nil, err
	}
	return resp, nil
}

// endpoint describes one routed endpoint pair's request type Q and result
// type R: the replica stream path its groups are forwarded to, the request
// fields the front reads, and the DetectResult embedded in a result.
type endpoint[Q, R any] struct {
	stream   string
	deadline func(*Q) *int64
	route    func(*Q) (name, source string)
	core     func(*R) *idiomatic.DetectResult
}

var (
	detectEndpoint = endpoint[idiomatic.DetectRequest, idiomatic.DetectResult]{
		stream:   "/v1/detect/stream",
		deadline: func(q *idiomatic.DetectRequest) *int64 { return &q.DeadlineMs },
		route:    func(q *idiomatic.DetectRequest) (string, string) { return q.Name, q.Source },
		core:     func(r *idiomatic.DetectResult) *idiomatic.DetectResult { return r },
	}
	matchEndpoint = endpoint[idiomatic.MatchRequest, idiomatic.MatchResult]{
		stream:   "/v1/match/stream",
		deadline: func(q *idiomatic.MatchRequest) *int64 { return &q.DeadlineMs },
		route:    func(q *idiomatic.MatchRequest) (string, string) { return q.Name, q.Source },
		core:     func(r *idiomatic.MatchResult) *idiomatic.DetectResult { return &r.DetectResult },
	}
)

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler {
	post := func(h http.HandlerFunc) http.HandlerFunc {
		return httpapi.Methods(map[string]http.HandlerFunc{http.MethodPost: h})
	}
	get := func(h http.HandlerFunc) http.HandlerFunc {
		return httpapi.Methods(map[string]http.HandlerFunc{http.MethodGet: h})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", post(routed(f, detectEndpoint, false)))
	mux.HandleFunc("/v1/match", post(routed(f, matchEndpoint, false)))
	mux.HandleFunc("/v1/detect/stream", post(routed(f, detectEndpoint, true)))
	mux.HandleFunc("/v1/match/stream", post(routed(f, matchEndpoint, true)))
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

// --- routed endpoints ---

// routedItem is one request of a group: the name that labels its in-band
// errors and its global submit index.
type routedItem struct {
	name   string
	global int
}

// group is the requests of one body owned by the same replica, in submit
// order (the replica's seq is the index in the group), with the response
// that opened its replica stream or the error that no replica answered.
type group struct {
	owner int
	items []routedItem
	body  []byte
	resp  *http.Response
	err   error
}

// split buckets decoded requests by their routed owner and re-encodes each
// bucket as the sub-batch its replica receives. Groups come in the order of
// their first request.
func split[Q, R any](f *Front, e endpoint[Q, R], reqs []Q) []*group {
	var groups []*group
	var subs [][]Q
	at := map[int]int{}
	for i := range reqs {
		name, source := e.route(&reqs[i])
		if name == "" {
			name = "input.c"
		}
		owner := f.owner(RouteKey(source))
		j, ok := at[owner]
		if !ok {
			j = len(groups)
			at[owner] = j
			groups = append(groups, &group{owner: owner})
			subs = append(subs, nil)
		}
		groups[j].items = append(groups[j].items, routedItem{name: name, global: i})
		subs[j] = append(subs[j], reqs[i])
	}
	for j, g := range groups {
		// Marshal cannot fail: the requests were just decoded from JSON.
		g.body, _ = json.Marshal(subs[j])
	}
	return groups
}

// forwardGroup opens one group's replica stream, trying its owner's failover
// order: live replicas first, then everyone, since liveness is advisory and
// may be stale. It keeps the response of the first replica that answered
// (any status), or the error when none was reachable.
func (f *Front) forwardGroup(ctx context.Context, g *group, path string, hdr http.Header) {
	for pass := 0; pass < 2; pass++ {
		for _, idx := range f.failover[g.owner] {
			if pass == 0 && !f.replicas[idx].up.Load() {
				continue
			}
			g.resp, g.err = f.forward(ctx, idx, http.MethodPost, path, hdr, g.body)
			if g.err == nil || ctx.Err() != nil {
				return
			}
		}
	}
}

// delivery makes one routed group answer exactly one result per item. R is
// the endpoint's wire result type and core reaches its embedded
// DetectResult: the field deliver re-sequences and the one miss fills with
// an in-band error.
type delivery[R any] struct {
	group     []routedItem
	core      func(*R) *idiomatic.DetectResult
	emit      func(R)
	delivered []bool
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

// drain delivers one opened group's stream line by line. Once the stream
// ends — broken, short, or never opened — every item it did not deliver
// gets an in-band error, unless the client is gone.
func (d *delivery[R]) drain(ctx context.Context, g *group) {
	if g.err != nil {
		d.miss("fleet: no replica reachable: " + g.err.Error())
		return
	}
	dec := json.NewDecoder(g.resp.Body)
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

// routed serves one routed endpoint, batch or NDJSON stream. The body is
// decoded as a replica decodes it, every group is forwarded to its
// replica's stream endpoint, and once all of them have answered their
// headers the first rejection (by earliest submitted request) is relayed
// verbatim; otherwise every group's results are delivered — written as they
// land for a stream, collected in submit order for a batch.
func routed[Q, R any](f *Front, e endpoint[Q, R], stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqs, ok := httpapi.DecodeBatch(w, r, e.deadline)
		if !ok {
			return
		}
		// Returning cancels every group still open, so a rejection sheds
		// the other replicas' work.
		ctx, cancel := context.WithCancel(r.Context())
		groups := split(f, e, reqs)
		defer func() {
			cancel()
			for _, g := range groups {
				if g.resp != nil {
					g.resp.Body.Close()
				}
			}
		}()
		var wg sync.WaitGroup
		for _, g := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.forwardGroup(ctx, g, e.stream, r.Header)
			}()
		}
		wg.Wait()
		for _, g := range groups {
			if g.resp != nil && g.resp.StatusCode != http.StatusOK {
				relay(w, g.resp)
				return
			}
		}

		var merged []R
		var emit func(R)
		if stream {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			flusher, _ := w.(http.Flusher)
			if flusher != nil {
				flusher.Flush()
			}
			enc := json.NewEncoder(w)
			var wmu sync.Mutex
			emit = func(res R) {
				wmu.Lock()
				defer wmu.Unlock()
				if enc.Encode(res) == nil && flusher != nil {
					flusher.Flush()
				}
			}
		} else {
			merged = make([]R, len(reqs))
			emit = func(res R) { merged[e.core(&res).Seq] = res }
		}
		for _, g := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := &delivery[R]{group: g.items, core: e.core, emit: emit, delivered: make([]bool, len(g.items))}
				d.drain(ctx, g)
			}()
		}
		wg.Wait()
		if !stream {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": merged})
		}
	}
}

// --- control-plane endpoints ---

// broadcastPack registers a pack on every replica: consistent-hash routing
// can land a pack's requests anywhere, so a registration that skipped a
// replica would surface as sporadic "unknown pack" errors. All-or-error:
// the first failing replica's envelope is relayed with its status, and
// otherwise the last replica's answer.
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
	for i, idx := range live {
		resp, err := f.forward(r.Context(), idx, http.MethodPost, "/v1/idioms", r.Header, body)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadGateway, idiomatic.CodeUnavailable,
				fmt.Sprintf("fleet: registering on %s: %v", f.replicas[idx].base, err))
			return
		}
		if resp.StatusCode != http.StatusOK || i == len(live)-1 {
			relay(w, resp)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// relayFirstLive forwards a read-only request, path and query, to the first
// live replica that answers (introspection data is identical fleet-wide once
// packs are broadcast).
func (f *Front) relayFirstLive(w http.ResponseWriter, r *http.Request) {
	for _, idx := range f.live() {
		if resp, err := f.forward(r.Context(), idx, http.MethodGet, r.URL.RequestURI(), r.Header, nil); err == nil {
			relay(w, resp)
			return
		}
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
		if resp.StatusCode != http.StatusOK {
			relay(w, resp)
			return
		}
		var payload struct {
			Clients []httpapi.ClientInfo `json:"clients"`
		}
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil {
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
		// A replica that fails or stalls past the probe timeout is
		// unreachable: its row carries no stats.
		resp, err := f.forward(r.Context(), i, http.MethodGet, "/statsz", r.Header, nil)
		if err == nil {
			var stats idiomatic.StatsResponse
			err = json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && err == nil {
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

// relay answers with a replica's response as received — status, content type,
// retry hint and body — and closes it.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	contentType := resp.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	w.Header().Set("Content-Type", contentType)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}
