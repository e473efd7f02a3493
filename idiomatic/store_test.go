package idiomatic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
	"weak"
)

const storeDotSource = `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`

// tinyIDL is a one-constraint pack source that compiles in microseconds,
// for tests that register many times.
const tinyIDL = "Constraint X ( {v} is add instruction ) End"

func newStateService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := NewService(ServiceOptions{Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatalf("NewService(StateDir=%s): %v", dir, err)
	}
	return svc
}

func canonicalBatch(t *testing.T, rs []DetectResult) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i, r := range rs {
		if r.Err != "" {
			t.Fatalf("result %d (%s): %s", i, r.Name, r.Err)
		}
		out[i] = canonicalJSON(t, r)
	}
	return out
}

// TestServiceWarmRestart is the tentpole's acceptance criterion at the
// service layer: run the full 21-workload suite against a state dir, restart
// (a brand-new Service on the same dir), re-run — the restarted service must
// answer with zero fresh solves, byte-identically to the first run.
func TestServiceWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := workloadRequests(RequestOptions{})

	svc1 := newStateService(t, dir)
	res1, err := svc1.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBatch(t, res1)
	if m := svc1.Stats().Memo; m.Misses == 0 {
		t.Fatal("cold run reported zero memo misses; the suite must have solved something")
	}
	svc1.Close() // flushes pending async spills

	svc2 := newStateService(t, dir)
	defer svc2.Close()
	if st := svc2.Stats().Store; !st.Enabled || st.Entries == 0 {
		t.Fatalf("restarted store stats = %+v; want enabled with surviving entries", st)
	}
	res2, err := svc2.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalBatch(t, res2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: warm-restarted result differs from the original run", reqs[i].Name)
		}
	}
	st := svc2.Stats()
	if st.Memo.Misses != 0 {
		t.Errorf("restarted service re-solved %d times; want zero fresh solves (all from disk)", st.Memo.Misses)
	}
	if st.Store.SpillHits == 0 {
		t.Error("restarted service reported zero disk read-throughs; the warm answers came from nowhere")
	}
}

// TestServicePackDurability pins the packs file: packs registered over the
// live API survive a restart without client re-registration, restored
// through the identical CompilePack path, one record per name holding the
// latest registration.
func TestServicePackDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	svc1 := newStateService(t, dir)
	if _, err := svc1.RegisterPack("durable", LibrarySource(), []TopSpec{
		{Name: "First", Top: "Reduction", Scheme: "reduction", Kind: "reduction"},
	}); err != nil {
		t.Fatal(err)
	}
	// Re-registration replaces; the restart must restore the later roster.
	if _, err := svc1.RegisterPack("durable", LibrarySource(), []TopSpec{
		{Name: "Dot", Top: "Reduction", Class: "Scalar Reduction", Scheme: "reduction", Kind: "reduction"},
	}); err != nil {
		t.Fatal(err)
	}
	r1, err := svc1.Detect(ctx, DetectRequest{Name: "dot.c", Source: storeDotSource, Pack: "durable"})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2 := newStateService(t, dir)
	defer svc2.Close()
	info, ok := svc2.PackByName("durable")
	if !ok {
		t.Fatal("pack not present after restart")
	}
	if len(info.Idioms) != 1 || info.Idioms[0].Name != "Dot" {
		t.Fatalf("replayed roster = %+v; want the later registration (Dot)", info.Idioms)
	}
	if st := svc2.Stats().Store; st.PacksReplayed != 1 {
		t.Fatalf("store stats = %+v; want 1 restored pack", st)
	}
	r2, err := svc2.Detect(ctx, DetectRequest{Name: "dot.c", Source: storeDotSource, Pack: "durable"})
	if err != nil {
		t.Fatalf("detect via replayed pack: %v", err)
	}
	if len(r2.Findings) == 0 || canonicalJSON(t, r2) != canonicalJSON(t, r1) {
		t.Errorf("replayed pack's detection differs from the original registration's")
	}
}

// TestServiceCrashRecovery simulates a crash mid-write — a stray temp file in
// the memo tree and one torn blob — and asserts the reboot contract: the temp
// file is swept, the corrupt entry is never served (it re-solves instead),
// the suite re-warms to >= 99% memo hits, and results stay byte-identical.
func TestServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := workloadRequests(RequestOptions{})

	svc1 := newStateService(t, dir)
	res1, err := svc1.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBatch(t, res1)
	svc1.Close()

	// The "crash": a half-written temp file that never got renamed, plus one
	// blob torn mid-write.
	memoRoot := filepath.Join(dir, "memo")
	var entries []string
	if err := filepath.WalkDir(memoRoot, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".entry") {
			entries = append(entries, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("suite produced no spilled entries; nothing to corrupt")
	}
	torn := entries[0]
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(filepath.Dir(torn), filepath.Base(torn)+".tmp999")
	if err := os.WriteFile(tmp, []byte("interrupted"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newStateService(t, dir)
	defer svc2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reboot: stat err = %v", err)
	}
	res2, err := svc2.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalBatch(t, res2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: post-crash result differs from the pre-crash run", reqs[i].Name)
		}
	}
	st := svc2.Stats()
	if st.Store.LoadErrors == 0 {
		t.Error("torn blob never flagged as a load error; was it served as valid?")
	}
	// The miss re-solved and re-spilled: whatever sits at the torn path now
	// must be a fresh, whole blob — never the half-write we planted.
	if now, err := os.ReadFile(torn); err == nil && bytes.Equal(now, raw[:len(raw)/2]) {
		t.Error("torn blob still on disk unrepaired after serving as a miss")
	}
	total := st.Memo.Hits + st.Memo.Misses
	if total == 0 {
		t.Fatal("no memo lookups recorded")
	}
	if rate := float64(st.Memo.Hits) / float64(total); rate < 0.99 {
		t.Errorf("re-warm hit rate %.4f (%d/%d) < 0.99", rate, st.Memo.Hits, total)
	}
	if st.Memo.Misses == 0 {
		t.Error("zero misses despite a torn blob; the corrupt entry must re-solve, not hit")
	}
}

// TestMemoSnapshotRoundTrip pins the warm-handoff path: a snapshot streamed
// from one service ingests into a fresh replica (its own state dir), which
// then serves the donor's workloads with zero fresh solves — and the donor's
// packs — without ever having seen the traffic.
func TestMemoSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	reqs := workloadRequests(RequestOptions{})

	donor := newStateService(t, t.TempDir())
	defer donor.Close()
	if _, err := donor.RegisterPack("handoff", LibrarySource(), []TopSpec{
		{Name: "Dot", Top: "Reduction", Scheme: "reduction", Kind: "reduction"},
	}); err != nil {
		t.Fatal(err)
	}
	res1, err := donor.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBatch(t, res1)

	var snap bytes.Buffer
	if err := donor.WriteMemoSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	heir := newStateService(t, t.TempDir())
	defer heir.Close()
	entries, packs, err := heir.IngestMemoSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 || packs != 1 {
		t.Fatalf("ingested %d entries, %d packs; want >0 entries and the donor's 1 pack", entries, packs)
	}
	if _, ok := heir.PackByName("handoff"); !ok {
		t.Fatal("donor's pack absent after ingest")
	}
	res2, err := heir.DetectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalBatch(t, res2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: inherited result differs from the donor's", reqs[i].Name)
		}
	}
	if m := heir.Stats().Memo; m.Misses != 0 {
		t.Errorf("inheriting service re-solved %d times; want zero fresh solves", m.Misses)
	}
}

// TestSnapshotRequiresStore pins the API contract for stateless services.
func TestSnapshotRequiresStore(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.StoreEnabled() {
		t.Fatal("StoreEnabled without a state dir")
	}
	var buf bytes.Buffer
	if err := svc.WriteMemoSnapshot(&buf); err != ErrNoStore {
		t.Errorf("WriteMemoSnapshot = %v; want ErrNoStore", err)
	}
	if _, _, err := svc.IngestMemoSnapshot(strings.NewReader("{}")); err != ErrNoStore {
		t.Errorf("IngestMemoSnapshot = %v; want ErrNoStore", err)
	}
}

// liveIdiom returns the one idiom name of the pack registered under name;
// these tests give each registration a distinct one.
func liveIdiom(t *testing.T, svc *Service, name string) string {
	t.Helper()
	info, ok := svc.PackByName(name)
	if !ok || len(info.Idioms) != 1 {
		t.Fatalf("pack %q = %+v, %v; want one idiom", name, info, ok)
	}
	return info.Idioms[0].Name
}

// TestConcurrentRegistrationsRestoreLastLive pins that the packs file
// follows the registry's order: after concurrent registrations of one name,
// a restart restores the pack the live service last served. A save taken
// outside the registration's lock can reach disk after a later one.
func TestConcurrentRegistrationsRestoreLastLive(t *testing.T) {
	const trials, writers, each = 40, 4, 5
	for trial := range trials {
		dir := t.TempDir()
		svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					tops := []TopSpec{{Name: fmt.Sprintf("W%dR%d", w, i), Top: "X"}}
					if _, err := svc.RegisterPack("race", tinyIDL, tops); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		live := liveIdiom(t, svc, "race")
		svc.Close()

		svc2, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		restored := liveIdiom(t, svc2, "race")
		replayed := svc2.Stats().Store.PacksReplayed
		svc2.Close()
		if restored != live || replayed != 1 {
			t.Fatalf("trial %d: restart restored %s (%d packs); the live service served %s", trial, restored, replayed, live)
		}
	}
}

// TestReregistrationKeepsOneRecord pins that pack state is bounded by the
// registry: 200 re-registrations of one name leave one record on disk, and
// a restart restores one pack, the last.
func TestReregistrationKeepsOneRecord(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 200 {
		if _, err := svc.RegisterPack("churn", tinyIDL, []TopSpec{{Name: fmt.Sprintf("V%d", i), Top: "X"}}); err != nil {
			t.Fatal(err)
		}
	}
	if files := packFiles(t, dir); len(files) != 1 {
		t.Fatalf("state dir holds pack files %q; want 1", files)
	}
	var recs []savedPack
	err = svc.store.LoadPacks(func(payload []byte) error {
		var rec savedPack
		recs = append(recs, rec)
		return json.Unmarshal(payload, &recs[len(recs)-1])
	})
	if err != nil || len(recs) != 1 || recs[0].Name != "churn" || recs[0].Version != 200 {
		t.Fatalf("pack files hold %+v (err %v); want one record of churn at version 200", recs, err)
	}
	svc.Close()

	svc2, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.Stats().Store.PacksReplayed; n != 1 {
		t.Errorf("restart restored %d packs; want 1", n)
	}
	if got := liveIdiom(t, svc2, "churn"); got != "V199" {
		t.Errorf("restart restored %s; want the last registration V199", got)
	}
}

// TestStatelessReplacedRegistrationIsCollectable pins that a service
// without a state dir keeps nothing of a replaced registration: its IDL
// source is unreachable once the registry moves on.
func TestStatelessReplacedRegistrationIsCollectable(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register := func(src string) {
		if _, err := svc.RegisterPack("p", src, []TopSpec{{Top: "Reduction"}}); err != nil {
			t.Fatal(err)
		}
	}
	src := strings.Clone(LibrarySource())
	old := weak.Make(unsafe.StringData(src))
	register(src)
	src = ""
	register(LibrarySource())
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("a replaced registration's IDL source is still reachable")
	}
}

// TestBootRejectsCorruptPacks pins that a pack file failing its integrity
// check fails boot, naming the file: a rename never tears it, so the damage
// is to tenant state, which must not be served as an empty set.
func TestBootRejectsCorruptPacks(t *testing.T) {
	dir := t.TempDir()
	svc := newStateService(t, dir)
	if _, err := svc.RegisterPack("p", tinyIDL, []TopSpec{{Top: "X"}}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	path := packFiles(t, dir)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if svc, err := NewService(ServiceOptions{Workers: 1, StateDir: dir}); err == nil || !strings.Contains(err.Error(), path) {
		if svc != nil {
			svc.Close()
		}
		t.Fatalf("NewService over a torn pack file = %v; want an error naming %s", err, path)
	}
}

// TestBootRejectsLegacyPackLog pins that a state dir holding a non-empty
// pack log of an older build fails boot rather than silently dropping its
// packs.
func TestBootRejectsLegacyPackLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "packs.log")
	if err := os.WriteFile(legacy, []byte(`{"schema":1,"name":"old","source":"src","idioms":[{"top":"X"}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if svc, err := NewService(ServiceOptions{Workers: 1, StateDir: dir}); err == nil || !strings.Contains(err.Error(), "re-register") {
		if svc != nil {
			svc.Close()
		}
		t.Fatalf("NewService beside a legacy pack log = %v; want an error asking to re-register", err)
	}
}

// packFiles lists the pack files of a state dir.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "packs", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestBootRemovesEmptyLegacyPackLog pins the upgrade of a state dir from an
// older build, which created an empty packs.log at every open: boot removes
// it and serves the warm memo and the saved packs.
func TestBootRemovesEmptyLegacyPackLog(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := DetectRequest{Name: "dot.c", Source: storeDotSource}
	svc1 := newStateService(t, dir)
	if _, err := svc1.Detect(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RegisterPack("p", tinyIDL, []TopSpec{{Top: "X"}}); err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	legacy := filepath.Join(dir, "packs.log")
	if err := os.WriteFile(legacy, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newStateService(t, dir)
	defer svc2.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("empty legacy pack log not removed at boot: stat err = %v", err)
	}
	if _, ok := svc2.PackByName("p"); !ok {
		t.Fatal("saved pack not restored beside an empty legacy pack log")
	}
	if _, err := svc2.Detect(ctx, req); err != nil {
		t.Fatal(err)
	}
	if m := svc2.Stats().Memo; m.Misses != 0 {
		t.Fatalf("restart beside an empty legacy pack log missed %d solves; want the warm memo", m.Misses)
	}
}

// TestRestartKeepsPackVersion pins that pack_version survives a restart:
// each pack comes back at the version it was registered under, and the
// next registration continues past the highest.
func TestRestartKeepsPackVersion(t *testing.T) {
	dir := t.TempDir()
	svc1, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, name := range []string{"a", "b", "a", "a", "c"} {
		info, err := svc1.RegisterPack(name, tinyIDL, []TopSpec{{Top: "X"}})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = info.Version
	}
	svc1.Close()
	if files := packFiles(t, dir); len(files) != len(want) {
		t.Fatalf("state dir holds pack files %q; want one per name", files)
	}

	svc2, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for name, v := range want {
		if info, _ := svc2.PackByName(name); info.Version != v {
			t.Errorf("pack %s restored at version %d; want %d", name, info.Version, v)
		}
	}
	info, err := svc2.RegisterPack("d", tinyIDL, []TopSpec{{Top: "X"}})
	if err != nil || info.Version != 6 {
		t.Fatalf("first registration after the restart = version %d, %v; want 6", info.Version, err)
	}
}
