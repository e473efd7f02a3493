// Package store is idiomd's persistence subsystem: a content-addressed blob
// store for spilled solve-memo entries (build-cache semantics — warm starts
// survive restarts) and an append-only pack log replayed at boot. Everything
// is crash-safe by construction: blobs are written to a temp file and
// renamed into place, each carries an integrity container (magic, schema
// version, length, SHA-256), and anything that fails verification is treated
// as a miss and removed — corruption can cost a re-solve, never a wrong
// answer.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
)

// Blob container layout: magic | version | u32le payload len | sha256(payload) | payload.
const (
	blobMagic   = "IDMB"
	blobVersion = 1
	// BlobSchemaVersion is the on-disk schema version of memo blobs,
	// surfaced in stats and docs. Bump it when the container (or the memo
	// payload codec inside it) changes incompatibly; old files then fail
	// verification and are swept as misses.
	BlobSchemaVersion = blobVersion

	blobHeaderLen = 4 + 1 + 4 + sha256.Size
	// maxBlobLen bounds what Load will read back; a well-formed memo entry
	// is a few KB, so anything larger is corruption.
	maxBlobLen = 64 << 20
)

// Store is one state directory: memo blobs under <dir>/memo/<xx>/<key>.entry
// (fanned out by the first key byte) and the pack log at <dir>/packs.log.
// It implements constraint.SpillStore.
type Store struct {
	dir string

	writer *asyncWriter

	packMu   sync.Mutex
	packFile *os.File

	entries       atomic.Int64 // gauge: blob files believed on disk
	writes        atomic.Int64
	writeErrs     atomic.Int64
	loads         atomic.Int64
	loadErrs      atomic.Int64 // integrity failures (file removed)
	asyncDrops    atomic.Int64
	packsAppended atomic.Int64
}

// Open opens (creating if needed) a state directory, sweeps stale temp files
// left by a crash mid-write, and counts the surviving entries.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty state dir")
	}
	if err := os.MkdirAll(filepath.Join(dir, "memo"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	n, err := s.sweep()
	if err != nil {
		return nil, err
	}
	s.entries.Store(int64(n))
	pf, err := os.OpenFile(s.packLogPath(), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.packFile = pf
	s.writer = newAsyncWriter(s)
	return s, nil
}

// Dir reports the state directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// sweep removes temp files from interrupted writes and counts entries.
func (s *Store) sweep() (entries int, err error) {
	root := filepath.Join(s.dir, "memo")
	werr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), ".tmp") {
			os.Remove(path)
			return nil
		}
		if strings.HasSuffix(d.Name(), ".entry") {
			entries++
		}
		return nil
	})
	if werr != nil {
		return 0, fmt.Errorf("store: sweeping %s: %w", root, werr)
	}
	return entries, nil
}

func (s *Store) blobPath(key constraint.SpillKey) string {
	hexKey := hex.EncodeToString(key[:])
	return filepath.Join(s.dir, "memo", hexKey[:2], hexKey+".entry")
}

// Load returns the payload stored under key. Any integrity failure — bad
// magic, version, length, or checksum — removes the file and reports a miss.
func (s *Store) Load(key constraint.SpillKey) ([]byte, bool) {
	s.loads.Add(1)
	path := s.blobPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, ok := openContainer(raw)
	if !ok {
		s.loadErrs.Add(1)
		if os.Remove(path) == nil {
			s.entries.Add(-1)
		}
		return nil, false
	}
	return payload, true
}

func openContainer(raw []byte) ([]byte, bool) {
	if len(raw) < blobHeaderLen || string(raw[:4]) != blobMagic || raw[4] != blobVersion {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(raw[5:9])
	if n > maxBlobLen || int(n) != len(raw)-blobHeaderLen {
		return nil, false
	}
	payload := raw[blobHeaderLen:]
	sum := sha256.Sum256(payload)
	var want [sha256.Size]byte
	copy(want[:], raw[9:blobHeaderLen])
	if sum != want {
		return nil, false
	}
	return payload, true
}

func sealContainer(payload []byte) []byte {
	out := make([]byte, 0, blobHeaderLen+len(payload))
	out = append(out, blobMagic...)
	out = append(out, blobVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// Write stores payload under key synchronously: temp file in the final
// directory, fsync, rename. A crash at any point leaves either the old entry
// or a swept temp file — never a torn blob served as valid.
func (s *Store) Write(key constraint.SpillKey, payload []byte) error {
	err := s.write(key, payload)
	if err != nil {
		s.writeErrs.Add(1)
	}
	return err
}

func (s *Store) write(key constraint.SpillKey, payload []byte) error {
	if len(payload) > maxBlobLen {
		return fmt.Errorf("store: payload %d bytes exceeds blob bound", len(payload))
	}
	path := s.blobPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(sealContainer(payload)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	_, statErr := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	s.writes.Add(1)
	if statErr != nil { // fresh entry, not an overwrite
		s.entries.Add(1)
	}
	return nil
}

// WriteAsync enqueues a write on the single writer goroutine; see
// constraint.SpillStore for the contract.
func (s *Store) WriteAsync(key constraint.SpillKey, payload []byte, done func(err error)) bool {
	ok := s.writer.enqueue(key, payload, done)
	if !ok {
		s.asyncDrops.Add(1)
	}
	return ok
}

// Flush blocks until every async write enqueued so far has been attempted.
func (s *Store) Flush() { s.writer.flush() }

// Close flushes pending async writes, stops the writer, and closes the pack
// log. The store must not be used afterwards.
func (s *Store) Close() error {
	s.writer.close()
	s.packMu.Lock()
	defer s.packMu.Unlock()
	if s.packFile != nil {
		err := s.packFile.Close()
		s.packFile = nil
		return err
	}
	return nil
}

// Entries walks every stored memo blob, calling fn with the key and verified
// payload (skipping anything that fails integrity checks). Flush first for a
// complete view. The snapshot endpoint streams from this.
func (s *Store) Entries(fn func(key constraint.SpillKey, payload []byte) error) error {
	root := filepath.Join(s.dir, "memo")
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".entry") {
			return nil
		}
		keyBytes, herr := hex.DecodeString(strings.TrimSuffix(name, ".entry"))
		if herr != nil || len(keyBytes) != sha256.Size {
			return nil
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		payload, ok := openContainer(raw)
		if !ok {
			return nil
		}
		var key constraint.SpillKey
		copy(key[:], keyBytes)
		return fn(key, payload)
	})
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries       int64 // gauge: memo blobs on disk
	Writes        int64
	WriteErrors   int64
	Loads         int64
	LoadErrors    int64 // integrity failures (file removed, served as miss)
	AsyncDrops    int64 // async writes refused by a full queue
	PacksAppended int64
}

// Stats reports the store's cumulative counters and entry gauge.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:       s.entries.Load(),
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrs.Load(),
		Loads:         s.loads.Load(),
		LoadErrors:    s.loadErrs.Load(),
		AsyncDrops:    s.asyncDrops.Load(),
		PacksAppended: s.packsAppended.Load(),
	}
}

// --- async writer ---

const asyncQueueDepth = 1024

type spillReq struct {
	key     constraint.SpillKey
	payload []byte
	done    func(err error)
}

// asyncWriter serializes spills onto one goroutine so the solve hot path
// never blocks on disk. The queue is bounded; overflow is reported to the
// caller and counted in Stats.AsyncDrops; the memo relies on eviction-time
// sync spill.
type asyncWriter struct {
	s    *Store
	ch   chan spillReq
	exit chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	closed  bool
}

func newAsyncWriter(s *Store) *asyncWriter {
	w := &asyncWriter{s: s, ch: make(chan spillReq, asyncQueueDepth), exit: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *asyncWriter) run() {
	defer close(w.exit)
	for req := range w.ch {
		err := w.s.Write(req.key, req.payload)
		if req.done != nil {
			req.done(err)
		}
		w.mu.Lock()
		w.pending--
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

func (w *asyncWriter) enqueue(key constraint.SpillKey, payload []byte, done func(err error)) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	select {
	case w.ch <- spillReq{key: key, payload: payload, done: done}:
		w.pending++
		return true
	default:
		return false
	}
}

func (w *asyncWriter) flush() {
	w.mu.Lock()
	for w.pending > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *asyncWriter) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.exit
		return
	}
	w.closed = true
	for w.pending > 0 {
		w.cond.Wait()
	}
	close(w.ch)
	w.mu.Unlock()
	<-w.exit
}
