package idiomatic

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/store"
)

// ErrNoStore is returned by the snapshot APIs on a service running without
// ServiceOptions.StateDir — there is no durable state to stream or ingest.
var ErrNoStore = errors.New("idiomatic: service has no state dir")

// MemoSnapshotSchemaVersion versions the snapshot stream produced by
// WriteMemoSnapshot (GET /v1/memo/snapshot): an NDJSON header line carrying
// the registered packs, then one line per verified memo blob.
const MemoSnapshotSchemaVersion = 1

// snapshotHeader is the snapshot's first NDJSON line.
type snapshotHeader struct {
	Schema int          `json:"schema"`
	Packs  []packRecord `json:"packs"`
}

// packRecord is one registered pack as its pack file and the snapshot
// header carry it: the registration as received, so boot and ingest
// re-register it through the identical CompilePack path.
type packRecord struct {
	Schema int       `json:"schema"`
	Name   string    `json:"name"`
	Source string    `json:"source"`
	Idioms []TopSpec `json:"idioms"`
}

// packRecordSchema versions packRecord.
const packRecordSchema = 1

func recordOf(p *idioms.Pack) packRecord {
	return packRecord{Schema: packRecordSchema, Name: p.Name, Source: p.Source, Idioms: p.Tops}
}

// packRecords lists packs as records, nil for none.
func packRecords(packs []*idioms.Pack) []packRecord {
	var out []packRecord
	for _, p := range packs {
		out = append(out, recordOf(p))
	}
	return out
}

// snapshotEntry is one memo blob: the hex spill key and the raw payload
// (JSON base64). Payloads re-enter the receiving store through the same
// integrity-checked Write path as local spills.
type snapshotEntry struct {
	Key  string `json:"key"`
	Blob []byte `json:"blob"`
}

// StoreEnabled reports whether the service runs with a durable state dir.
func (s *Service) StoreEnabled() bool { return s.store != nil }

// WriteMemoSnapshot streams the service's durable warm state — registered
// packs and every verified memo blob — as NDJSON. Pending async spills are
// flushed first, so the snapshot includes everything solved before the call.
// A booting replica ingests this (idiomd -warm-from) to inherit the warm
// memo instead of re-solving the world.
func (s *Service) WriteMemoSnapshot(w io.Writer) error {
	if s.store == nil {
		return ErrNoStore
	}
	s.store.Flush()
	enc := json.NewEncoder(w)
	if err := enc.Encode(snapshotHeader{Schema: MemoSnapshotSchemaVersion, Packs: packRecords(s.reg.Packs())}); err != nil {
		return err
	}
	return s.store.Entries(func(key constraint.SpillKey, payload []byte) error {
		return enc.Encode(snapshotEntry{Key: hex.EncodeToString(key[:]), Blob: payload})
	})
}

// IngestMemoSnapshot applies a WriteMemoSnapshot stream to this service:
// packs are registered through the ordinary RegisterPack path (compiled,
// saved to this replica's own pack files) and memo blobs are written into
// the local store, where the solve memo's read-through finds them. Returns
// how many entries and pack registrations were applied.
func (s *Service) IngestMemoSnapshot(r io.Reader) (entries, packs int, err error) {
	if s.store == nil {
		return 0, 0, ErrNoStore
	}
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, 0, fmt.Errorf("idiomatic: reading snapshot header: %w", err)
	}
	if hdr.Schema != MemoSnapshotSchemaVersion {
		return 0, 0, fmt.Errorf("idiomatic: snapshot schema %d, want %d", hdr.Schema, MemoSnapshotSchemaVersion)
	}
	for _, rec := range hdr.Packs {
		if _, err := s.RegisterPack(rec.Name, rec.Source, rec.Idioms); err != nil {
			return entries, packs, fmt.Errorf("idiomatic: snapshot pack %q: %w", rec.Name, err)
		}
		packs++
	}
	for {
		var ent snapshotEntry
		if err := dec.Decode(&ent); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return entries, packs, fmt.Errorf("idiomatic: reading snapshot entry: %w", err)
		}
		keyBytes, err := hex.DecodeString(ent.Key)
		if err != nil || len(keyBytes) != len(constraint.SpillKey{}) {
			return entries, packs, fmt.Errorf("idiomatic: snapshot entry with malformed key %q", ent.Key)
		}
		var key constraint.SpillKey
		copy(key[:], keyBytes)
		if err := s.store.Write(key, ent.Blob); err != nil {
			return entries, packs, fmt.Errorf("idiomatic: writing snapshot entry: %w", err)
		}
		entries++
	}
	return entries, packs, nil
}

// savedPack is one pack file: the registration as received plus the
// version the registry gave it, so a restart keeps pack_version.
type savedPack struct {
	packRecord
	Version uint64 `json:"version"`
}

// restorePacks registers each saved pack once, at its saved version. The
// files only ever hold packs that compiled when saved, so a failure means
// the binary and the state dir disagree — boot fails loudly, naming the
// file, rather than silently serving a subset.
func (s *Service) restorePacks() error {
	n := 0
	err := s.store.LoadPacks(func(payload []byte) error {
		var rec savedPack
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("decoding pack: %w", err)
		}
		if rec.Schema != packRecordSchema || rec.Version == 0 {
			return fmt.Errorf("pack %q has record schema %d at version %d, want schema %d at a version", rec.Name, rec.Schema, rec.Version, packRecordSchema)
		}
		if _, dup := s.reg.Pack(rec.Name); dup {
			return fmt.Errorf("pack %q is saved twice", rec.Name)
		}
		if _, err := s.reg.Restore(rec.Name, rec.Source, rec.Idioms, rec.Version); err != nil {
			return fmt.Errorf("restoring pack %q: %w", rec.Name, err)
		}
		n++
		return nil
	})
	if err != nil {
		return fmt.Errorf("idiomatic: %w", err)
	}
	s.packsReplayed = n
	return nil
}

// savePack replaces p's file with its registration. HTML escaping is off,
// so the file stays within twice the request body that registered it.
func (s *Service) savePack(p *idioms.Pack) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(savedPack{recordOf(p), p.Version}); err != nil {
		return err
	}
	return s.store.SavePack(p.Name, buf.Bytes())
}

// StoreStats is the /statsz persistence block (stats schema v3). Zero-valued
// with Enabled false when the service runs without a state dir.
type StoreStats struct {
	Enabled bool `json:"enabled"`
	// SchemaVersion is the on-disk blob schema (store.BlobSchemaVersion).
	SchemaVersion int `json:"schema_version,omitempty"`
	// Entries is the memo-blob gauge; Writes/WriteErrors count blob writes.
	Entries     int64 `json:"entries"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// Loads counts read-through attempts at the store; LoadErrors counts
	// integrity failures (file removed, served as a miss).
	Loads      int64 `json:"loads"`
	LoadErrors int64 `json:"load_errors"`
	// AsyncDrops counts spills refused by a full writer queue (recovered by
	// eviction-time sync spill, counted in SyncSpills).
	AsyncDrops int64 `json:"async_drops"`
	SyncSpills int64 `json:"sync_spills"`
	// SpillHits / SpillMisses count the memo's disk read-throughs;
	// DecodeErrors counts payloads the memo codec rejected.
	SpillHits    int64 `json:"spill_hits"`
	SpillMisses  int64 `json:"spill_misses"`
	DecodeErrors int64 `json:"decode_errors"`
	// PacksReplayed counts the packs restored from their files at boot.
	PacksReplayed int `json:"packs_replayed"`
}

func (s *Service) storeStats() StoreStats {
	if s.store == nil {
		return StoreStats{}
	}
	st := s.store.Stats()
	out := StoreStats{
		Enabled:       true,
		SchemaVersion: store.BlobSchemaVersion,
		Entries:       st.Entries,
		Writes:        st.Writes,
		WriteErrors:   st.WriteErrors,
		Loads:         st.Loads,
		LoadErrors:    st.LoadErrors,
		AsyncDrops:    st.AsyncDrops,
		PacksReplayed: s.packsReplayed,
	}
	if s.memo != nil {
		sp := s.memo.SpillStats()
		out.SpillHits = sp.Hits
		out.SpillMisses = sp.Misses
		out.SyncSpills = sp.SyncSpills
		out.DecodeErrors = sp.DecodeErrors
	}
	return out
}
