package store

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/constraint"
)

func testKey(b byte) constraint.SpillKey {
	var k constraint.SpillKey
	for i := range k {
		k[i] = b
	}
	return k
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestBlobRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := testKey(0xaa)
	payload := []byte("memo payload bytes")
	if err := s.Write(key, payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, ok := s.Load(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Load = %q, %v; want %q, true", got, ok, payload)
	}
	// Overwrite under the same key must not double-count the entry gauge.
	if err := s.Write(key, []byte("second version")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Writes != 2 || st.WriteErrors != 0 {
		t.Fatalf("stats after overwrite = %+v; want 1 entry, 2 writes, 0 errors", st)
	}
	if got, ok := s.Load(key); !ok || string(got) != "second version" {
		t.Fatalf("Load after overwrite = %q, %v", got, ok)
	}
}

func TestLoadMissOnAbsent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, ok := s.Load(testKey(1)); ok {
		t.Fatal("Load of absent key reported a hit")
	}
	if st := s.Stats(); st.Loads != 1 || st.LoadErrors != 0 {
		t.Fatalf("stats = %+v; absent key is a plain miss, not an integrity error", st)
	}
}

// TestLoadCorruptionIsMiss pins the crash-safety contract: a blob that fails
// its integrity check is served as a miss and removed, never as data.
func TestLoadCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := testKey(0x5c)
	if err := s.Write(key, []byte("pristine")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	path := s.blobPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading blob back: %v", err)
	}
	raw[len(raw)-1] ^= 0xff // flip a payload byte under the checksum
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupting blob: %v", err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("Load served a corrupted blob")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupted blob not removed: stat err = %v", err)
	}
	st := s.Stats()
	if st.LoadErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want 1 load error and 0 entries after removal", st)
	}
	// Truncated header and bad magic are equally rejected.
	for name, raw := range map[string][]byte{
		"truncated": {0x49, 0x44},
		"bad magic": append([]byte("NOPE"), raw[4:]...),
	} {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := s.Load(key); ok {
			t.Fatalf("%s blob served as valid", name)
		}
	}
}

// TestOpenSweepsTempFiles simulates a crash mid-write: the temp file a rename
// never happened for must be swept at the next Open, and surviving entries
// counted.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Write(testKey(0x11), []byte("survivor")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s.Close()

	sub := filepath.Join(dir, "memo", "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "abcd.entry.tmp12345")
	if err := os.WriteFile(tmp, []byte("torn half-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not swept at Open: stat err = %v", err)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("entries after reopen = %d; want the 1 survivor", st.Entries)
	}
	if got, ok := s2.Load(testKey(0x11)); !ok || string(got) != "survivor" {
		t.Fatalf("survivor not readable after reopen: %q, %v", got, ok)
	}
}

func TestWriteAsyncFlush(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := testKey(0x42)
	var doneErr = os.ErrInvalid // sentinel: overwritten by the callback
	ok := s.WriteAsync(key, []byte("async payload"), func(err error) { doneErr = err })
	if !ok {
		t.Fatal("WriteAsync refused with an empty queue")
	}
	s.Flush()
	if doneErr != nil {
		t.Fatalf("done callback got %v; want nil", doneErr)
	}
	if got, ok := s.Load(key); !ok || string(got) != "async payload" {
		t.Fatalf("Load after Flush = %q, %v", got, ok)
	}
}

func TestWriteAsyncAfterCloseRefuses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.WriteAsync(testKey(9), nil, nil) {
		t.Fatal("WriteAsync accepted work after Close")
	}
	if st := s.Stats(); st.AsyncDrops != 1 {
		t.Fatalf("AsyncDrops = %d; want 1", st.AsyncDrops)
	}
}

func TestEntriesWalkSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := map[constraint.SpillKey]string{
		testKey(1): "one",
		testKey(2): "two",
		testKey(3): "three",
	}
	for k, v := range want {
		if err := s.Write(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	bad := testKey(4)
	if err := s.Write(bad, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(bad), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray file with a non-hex name must be ignored, not crash the walk.
	if err := os.WriteFile(filepath.Join(dir, "memo", "not-a-key.entry"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := map[constraint.SpillKey]string{}
	err := s.Entries(func(key constraint.SpillKey, payload []byte) error {
		got[key] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Entries yielded %d blobs; want %d valid ones", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Entries[%s] = %q; want %q", hex.EncodeToString(k[:4]), got[k], v)
		}
	}
}

func TestPackLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	recs := []PackRecord{
		{Name: "alpha", Source: "idiom A {}", Idioms: json.RawMessage(`[{"top":"A"}]`)},
		{Name: "beta", Source: "idiom B {}", Idioms: json.RawMessage(`[{"top":"B"}]`)},
	}
	for _, r := range recs {
		if err := s.AppendPack(r); err != nil {
			t.Fatalf("AppendPack(%s): %v", r.Name, err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir)
	got, skipped, err := s2.ReplayPacks()
	if err != nil || skipped != 0 {
		t.Fatalf("ReplayPacks: err=%v skipped=%d", err, skipped)
	}
	if len(got) != 2 || got[0].Name != "alpha" || got[1].Name != "beta" {
		t.Fatalf("replayed %+v; want alpha then beta in append order", got)
	}
	if got[0].Schema != PackLogSchemaVersion || got[0].Source != "idiom A {}" {
		t.Fatalf("record fields not preserved: %+v", got[0])
	}
}

// TestPackLogTornTail pins the recovery rule: a corrupt line (crash
// mid-append) abandons itself and everything after it — replay never applies
// records beyond a tear.
func TestPackLogTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendPack(PackRecord{Name: "keep", Source: "src"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, "packs.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn JSON line, then a well-formed record that must NOT be applied.
	if _, err := f.WriteString("{\"schema\":1,\"name\":\"to\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"name":"after-tear","source":"s"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir)
	recs, skipped, err := s2.ReplayPacks()
	if err != nil {
		t.Fatalf("ReplayPacks: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "keep" {
		t.Fatalf("replayed %+v; want only the pre-tear record", recs)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d; want 2 (the tear and the line after it)", skipped)
	}
}

// TestPackLogUnknownSchemaAbandons covers a downgrade: records written by a
// newer binary end the replay rather than being half-understood.
func TestPackLogUnknownSchemaAbandons(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendPack(PackRecord{Name: "old", Source: "src"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, "packs.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":99,"name":"future","source":"s"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir)
	recs, skipped, err := s2.ReplayPacks()
	if err != nil || len(recs) != 1 || recs[0].Name != "old" || skipped != 1 {
		t.Fatalf("recs=%+v skipped=%d err=%v; want only the v1 record, 1 skipped", recs, skipped, err)
	}
}

func TestContainerRejectsLengthMismatch(t *testing.T) {
	sealed := sealContainer([]byte("hello"))
	if _, ok := openContainer(sealed); !ok {
		t.Fatal("well-formed container rejected")
	}
	// Declared length shorter than actual payload.
	tampered := append([]byte(nil), sealed...)
	tampered[5] = 1
	if _, ok := openContainer(tampered); ok {
		t.Fatal("container with mismatched declared length accepted")
	}
}
