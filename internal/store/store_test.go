package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// loadPacks collects every saved pack payload as a string.
func loadPacks(s *Store) ([]string, error) {
	var out []string
	err := s.LoadPacks(func(payload []byte) error {
		out = append(out, string(payload))
		return nil
	})
	return out, err
}

// TestPacksRoundtrip pins the pack files: a save replaces its name's file
// only, reads back after a reopen, and leaves the memo gauges alone.
func TestPacksRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if got, err := loadPacks(s); got != nil || err != nil {
		t.Fatalf("LoadPacks before any save = %q, %v; want nothing", got, err)
	}
	for _, save := range [][2]string{{"alpha", "alpha v1"}, {"beta", "beta v1"}, {"alpha", "alpha v2"}} {
		if err := s.SavePack(save[0], []byte(save[1])); err != nil {
			t.Fatalf("SavePack: %v", err)
		}
	}
	if st := s.Stats(); st.Entries != 0 || st.Writes != 0 {
		t.Fatalf("stats after pack saves = %+v; want the memo gauges untouched", st)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	got, err := loadPacks(s2)
	slices.Sort(got)
	if err != nil || !slices.Equal(got, []string{"alpha v2", "beta v1"}) {
		t.Fatalf("LoadPacks after reopen = %q, %v; want each name's last save", got, err)
	}
	wantErr := errors.New("rejected")
	if err := s2.LoadPacks(func([]byte) error { return wantErr }); !errors.Is(err, wantErr) || !strings.Contains(err.Error(), s2.packPath("alpha")) {
		t.Fatalf("LoadPacks with a rejecting callback = %v; want its error naming %s", err, s2.packPath("alpha"))
	}
}

// TestPacksBeyondBlobBound pins that the blob bound applies to each pack,
// not to the registered set: packs whose total passes it all save and
// read back.
func TestPacksBeyondBlobBound(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	payload := make([]byte, maxBlobLen/4)
	const packs = 5
	for i := range packs {
		payload[0] = byte(i)
		if err := s.SavePack(fmt.Sprintf("p%d", i), payload); err != nil {
			t.Fatalf("SavePack %d of %d-byte packs: %v", i, len(payload), err)
		}
	}
	s.Close()

	n := 0
	err := mustOpen(t, dir).LoadPacks(func(got []byte) error {
		if len(got) != len(payload) {
			return fmt.Errorf("read back %d bytes; want %d", len(got), len(payload))
		}
		n++
		return nil
	})
	if err != nil || n != packs {
		t.Fatalf("LoadPacks = %d packs, %v; want %d", n, err, packs)
	}
}

// TestLoadPacksRejectsCorrupt pins that a pack file failing its integrity
// check is an error naming the file, never a silently missing pack.
func TestLoadPacksRejectsCorrupt(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.SavePack("alpha", []byte(`{"name":"alpha"}`)); err != nil {
		t.Fatal(err)
	}
	path := s.packPath("alpha")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := loadPacks(s); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadPacks of a corrupt file = %q, %v; want an error naming %s", got, err, path)
	}
}

// TestLoadPacksRejectsLegacyLog pins that a non-empty pack log left by an
// older build is an error naming it: its packs would otherwise vanish
// silently.
func TestLoadPacksRejectsLegacyLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "packs.log")
	if err := os.WriteFile(legacy, []byte(`{"schema":1,"name":"old","source":"src"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if _, err := loadPacks(s); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("LoadPacks beside a legacy log = %v; want an error naming %s", err, legacy)
	}
}

// TestLoadPacksRemovesEmptyLegacyLog pins that the empty pack log every
// older build created at open holds nothing to lose: it is removed and the
// saved packs load.
func TestLoadPacksRemovesEmptyLegacyLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "packs.log")
	if err := os.WriteFile(legacy, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if err := s.SavePack("alpha", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if got, err := loadPacks(s); err != nil || !slices.Equal(got, []string{"a"}) {
		t.Fatalf("LoadPacks beside an empty legacy log = %q, %v; want the saved pack", got, err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("empty legacy log not removed: stat err = %v", err)
	}
}

// TestOpenSweepsPacksTemp simulates a crash mid-save: the pack file's temp
// is swept at the next Open and the previous registration survives. Files
// outside memo/ and packs/ are left alone.
func TestOpenSweepsPacksTemp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.SavePack("kept", []byte("kept v1")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := s.packPath("kept") + ".tmp12345"
	if err := os.WriteFile(tmp, []byte("torn half-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "notes.tmp")
	if err := os.WriteFile(foreign, []byte("an operator's file"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("pack temp file not swept at Open: stat err = %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("Open removed a file outside memo/ and packs/: %v", err)
	}
	if got, err := loadPacks(s2); err != nil || !slices.Equal(got, []string{"kept v1"}) {
		t.Fatalf("LoadPacks after the sweep = %q, %v; want the previous registration", got, err)
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
