package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/idiomatic"
	"repro/internal/fleet"
	"repro/internal/httpapi"
)

// fleetReadRate is the fleet-churn reader's arrival rate in requests per
// second. A reader request that lands behind a writer's pinned suite waits
// for it, so the rate stays low enough that one connection rarely queues.
const fleetReadRate = 30

// writerThink is the writer's pause between cycles: the writer keeps the
// replicas solving fresh about a sixth of the time, not all of it.
const writerThink = time.Second

// fleetSetups is how many times each run sets fleet-churn up.
const fleetSetups = 7

// The fleet's two equal-weight tenants: a reader, and an admin writer that
// re-registers the bench pack.
const (
	readerKey = "bench-reader-key"
	writerKey = "bench-writer-key"
	keyfile   = readerKey + " reader 1\n" + writerKey + " writer 1 admin\n"
)

// replicas is how many idiomd replicas stand behind the front.
const replicas = 2

// fleetSystem is replicas behind a fleet.Front, all on loopback.
type fleetSystem struct {
	svcs  []*idiomatic.Service
	reps  []*server
	front *fleet.Front
	fsrv  *server
	once  sync.Once
}

// close stops the fleet; it may be called again.
func (f *fleetSystem) close() {
	f.once.Do(func() {
		if f.fsrv != nil {
			f.fsrv.stop()
		}
		if f.front != nil {
			f.front.Close()
		}
		for _, r := range f.reps {
			r.stop()
		}
		for _, s := range f.svcs {
			s.Close()
		}
	})
}

// handlerWrap lets the traced run wrap a handler in a span; nil wraps
// nothing.
type handlerWrap func(name string, h http.Handler) http.Handler

// bootFleet starts one replica per state dir, each serving the keyring,
// and a front routing over them.
func bootFleet(dirs []string, wrap handlerWrap) (*fleetSystem, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	kr, err := httpapi.ParseKeyring(strings.NewReader(keyfile))
	if err != nil {
		return nil, err
	}
	f := &fleetSystem{}
	var urls []string
	for _, dir := range dirs {
		svc, err := idiomatic.NewService(idiomatic.ServiceOptions{StateDir: dir})
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		srv, err := serve(wrap("replica", httpapi.NewServer(svc, httpapi.Options{Keys: kr})))
		if err != nil {
			f.close()
			return nil, err
		}
		f.reps = append(f.reps, srv)
		urls = append(urls, srv.url)
	}
	if f.front, err = fleet.New(fleet.Options{Replicas: urls}); err != nil {
		f.close()
		return nil, err
	}
	if f.fsrv, err = serve(wrap("front", f.front.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// storeTotals sums the replicas' store counters.
func (f *fleetSystem) storeTotals() (t idiomatic.StoreStats) {
	for _, s := range f.svcs {
		st := s.Stats().Store
		t.SpillHits += st.SpillHits
		t.Writes += st.Writes
		t.SyncSpills += st.SyncSpills
		t.AsyncDrops += st.AsyncDrops
	}
	return t
}

// preparePristine builds, out of band, the state dir every fleet replica
// boots from: the bench pack in the pack log and the suite's solves in the
// memo spill, copied once per replica.
func preparePristine(dir string, mods []module) ([]string, error) {
	first := filepath.Join(dir, "r0")
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{StateDir: first})
	if err != nil {
		return nil, err
	}
	_, err = svc.RegisterPack(packName, packSource(), packTops)
	if err == nil {
		_, err = svc.MatchBatch(context.Background(), matchRequests(mods, false))
	}
	svc.Close()
	if err != nil {
		return nil, err
	}
	dirs := []string{first}
	for i := 1; i < replicas; i++ {
		d := filepath.Join(dir, fmt.Sprintf("r%d", i))
		if err := copyDir(first, d); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

// freshCopies replaces dst's state dirs with copies of the pristine ones.
func freshCopies(pristine []string, dst string) ([]string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return nil, err
	}
	var out []string
	for i, p := range pristine {
		d := filepath.Join(dst, fmt.Sprintf("r%d", i))
		if err := copyDir(p, d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// copyDir copies a tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// bootFleetWarm boots the fleet on fresh copies of the pristine state and
// serves one suite pass through the front, every solve of which must come
// from the disk spill. The set-up, copying and checking excluded, is timed
// into setups when it is not nil.
func bootFleetWarm(pristine []string, work string, mods []module, rd *client, o *outcome, wrap handlerWrap, setups *setupTimes) (*fleetSystem, error) {
	dirs, err := freshCopies(pristine, work)
	if err != nil {
		return nil, err
	}
	stop := func() {}
	if setups != nil {
		stop = setups.start()
	}
	f, err := bootFleet(dirs, wrap)
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(matchRequests(mods, false))
	res, err := rd.match(f.fsrv.url, body, nil)
	stop()
	if err != nil {
		f.close()
		return nil, err
	}
	for _, r := range res {
		o.chk.check(r, false)
	}
	for i, s := range f.svcs {
		st := s.Stats()
		o.selfCheck(st.Memo.Misses == 0, "replica %d solved %d modules fresh in the set-up pass", i, st.Memo.Misses)
		o.selfCheck(st.Completed == 0 || st.Store.SpillHits > 0, "replica %d served the set-up pass without spill hits", i)
		o.selfCheck(st.Store.PacksReplayed == 1, "replica %d replayed %d packs, want 1", i, st.Store.PacksReplayed)
	}
	return f, nil
}

// writeCycle is one writer turn: a pack registration broadcast through the
// front, then the suite pinned to the new pack version.
type writeCycle struct {
	wall    time.Duration
	results []json.RawMessage
	err     error
}

// fleetChurn: reads and writes at once through the front.
func fleetChurn(cfg config, o *outcome) error {
	mods, err := suite()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	wrng := rand.New(rand.NewSource(cfg.seed + 1))
	pristine, err := preparePristine(filepath.Join(cfg.work, "pristine"), mods)
	if err != nil {
		return err
	}
	rd := newClient(1, readerKey)
	defer rd.close()
	wr := newClient(1, writerKey)
	defer wr.close()

	var f *fleetSystem
	var setups setupTimes
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.close()
		}
		f, err = bootFleetWarm(pristine, filepath.Join(cfg.work, "live"), permuted(mods, rng), rd, o, nil, &setups)
		if err != nil {
			return err
		}
	}
	defer f.close()
	setups.record(o.e2e)

	var smp *sampler
	var mem *phaseMem
	if cfg.trace {
		smp = startSampler(func() []*idiomatic.Service { return f.svcs })
		mem = beginPhase()
	}
	o.info["rate_per_s"] = fleetReadRate
	o.info["writer_think_s"] = writerThink.Seconds()
	before := countersOf(f.svcs...)
	bodies := singleBodies(mods)
	var cycles []writeCycle
	var bumpErrs []string
	a, err := openPhase(cfg, o, rng, fleetReadRate, 1, len(mods), func(a arrival) ([]json.RawMessage, error) {
		return rd.match(f.fsrv.url, bodies[a.mod], nil)
	}, func(stop <-chan struct{}) {
		cycles, bumpErrs = writer(f, wr, mods, wrng, stop)
	})
	if err != nil {
		return err
	}
	for _, e := range bumpErrs {
		o.selfCheck(false, "%s", e)
	}
	if smp != nil {
		smp.finish(o.layers)
	}
	if cfg.trace {
		mem.end(o.layers, len(a.ss)+len(cycles)*len(mods))
		countersOf(f.svcs...).sub(before).record(o.layers)
		st := f.storeTotals()
		o.layers.set("store.spill_hits", "count", float64(st.SpillHits))
		o.layers.set("store.writes", "count", float64(st.Writes))
		o.layers.set("store.sync_spills", "count", float64(st.SyncSpills))
		o.layers.set("store.async_drops", "count", float64(st.AsyncDrops))
	}
	readCorrect := recordOpenLoop(o, a.ss, a.start, false)
	var walls []time.Duration
	writeCorrect := 0
	for _, c := range cycles {
		o.attempted += len(mods)
		if c.err == nil && len(c.results) != len(mods) {
			c.err = fmt.Errorf("a pinned suite of %d modules got %d results", len(mods), len(c.results))
		}
		if c.err != nil {
			o.requestFailed(len(mods), c.err)
			continue
		}
		walls = append(walls, c.wall)
		for _, r := range c.results {
			if o.chk.check(r, true) {
				writeCorrect++
			} else {
				o.failed++
			}
		}
	}
	o.selfCheck(len(walls) > 0, "the writer completed no cycle")
	o.e2e.median("write_ms", "ms", durationsMs(walls))
	o.e2e.set("modules_per_s", "1/s", float64(readCorrect+writeCorrect)/a.end.Sub(a.start).Seconds())
	o.recordCPU(a.cpu, readCorrect+writeCorrect)
	o.info["write_cycles"] = len(cycles)
	return nil
}

// registration is a POST /v1/idioms body for the bench pack. The revision
// comment changes the source's content address, so the solves of every
// registration are fresh rather than read back from the disk spill.
func registration(revision string) []byte {
	b, _ := json.Marshal(map[string]any{
		"pack":   packName,
		"source": packSource() + "\n# revision " + revision + "\n",
		"idioms": packTops,
	})
	return b
}

// writer runs write cycles in a closed loop until stop is closed. It also
// returns every registration that left a replica's pack version unchanged.
func writer(f *fleetSystem, wr *client, mods []module, rng *rand.Rand, stop <-chan struct{}) (out []writeCycle, bumpErrs []string) {
	prev := make([]uint64, len(f.svcs))
	for i, s := range f.svcs {
		p, _ := s.PackByName(packName)
		prev[i] = p.Version
	}
	for {
		select {
		case <-stop:
			return out, bumpErrs
		default:
		}
		body, _ := json.Marshal(matchRequests(permuted(mods, rng), true))
		reg := registration(fmt.Sprintf("writer %d", len(out)))
		t0 := time.Now()
		var c writeCycle
		if _, c.err = wr.post(f.fsrv.url+"/v1/idioms", reg, nil); c.err == nil {
			for i, s := range f.svcs {
				p, _ := s.PackByName(packName)
				if p.Version <= prev[i] {
					bumpErrs = append(bumpErrs, fmt.Sprintf("registration left replica %d at pack version %d", i, p.Version))
				}
				prev[i] = p.Version
			}
			c.results, c.err = wr.match(f.fsrv.url, body, nil)
		}
		c.wall = time.Since(t0)
		out = append(out, c)
		select {
		case <-stop:
		case <-time.After(writerThink):
		}
	}
}

// counters are the cumulative service counters a traced phase reports.
type counters struct{ hits, misses, skipped, reordered int64 }

func countersOf(svcs ...*idiomatic.Service) counters {
	var c counters
	for _, s := range svcs {
		st := s.Stats()
		c.hits += st.Memo.Hits
		c.misses += st.Memo.Misses
		c.skipped += st.PruneSkipped
		c.reordered += st.PruneReordered
	}
	return c
}

func (c counters) add(d counters) counters {
	return counters{c.hits + d.hits, c.misses + d.misses, c.skipped + d.skipped, c.reordered + d.reordered}
}

func (c counters) sub(d counters) counters {
	return counters{c.hits - d.hits, c.misses - d.misses, c.skipped - d.skipped, c.reordered - d.reordered}
}

// record reports the memo and prescreen counters of a measured phase.
func (c counters) record(m *metrics) {
	m.set("constraint.memo_hits", "count", float64(c.hits))
	m.set("constraint.memo_misses", "count", float64(c.misses))
	ratio := 0.0
	if c.hits+c.misses > 0 {
		ratio = float64(c.hits) / float64(c.hits+c.misses)
	}
	m.set("constraint.memo_hit_ratio", "ratio", ratio)
	m.set("similarity.skipped", "count", float64(c.skipped))
	m.set("similarity.reordered", "count", float64(c.reordered))
}
