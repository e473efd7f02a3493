package idiomatic

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/store"
)

// FuzzRestorePacks feeds boot arbitrary bytes as a pack file's payload.
// The payload is sealed through the store's own save path: the integrity
// container around it is FuzzOpenContainer's target, and a checksum the
// fuzzer cannot forge would stop every input short of the decoder. Boot
// must never panic; it either restores exactly the decoded pack or fails.
//
//	go test ./idiomatic -run '^$' -fuzz '^FuzzRestorePacks$' -fuzztime 10s
func FuzzRestorePacks(f *testing.F) {
	src, _ := json.Marshal(tinyIDL)
	rec := func(schema int, name, idioms string, version int) string {
		return fmt.Sprintf(`{"schema":%d,"name":%q,"source":%s,"idioms":%s,"version":%d}`, schema, name, src, idioms, version)
	}
	f.Add([]byte(rec(1, "alpha", `[{"top":"X"}]`, 1)))
	f.Add([]byte(rec(1, "beta", `[{"name":"B","top":"X","kind":"map"}]`, 7)))
	f.Add([]byte(rec(2, "future", `[{"top":"X"}]`, 1)))
	f.Add([]byte(rec(1, "broken", `[{"top":"Missing"}]`, 1)))
	f.Add([]byte(rec(1, "unversioned", `[{"top":"X"}]`, 0)))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = st.SavePack("fuzz", payload)
		st.Close()
		if err != nil {
			return // larger than the container bound
		}
		svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: dir})
		if err != nil {
			return
		}
		defer svc.Close()
		var want savedPack
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("boot restored a pack from a payload that does not decode: %v", err)
		}
		packs := svc.reg.Packs()
		if len(packs) != 1 {
			t.Fatalf("boot restored %d packs from one file", len(packs))
		}
		got := savedPack{recordOf(packs[0]), packs[0].Version}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("boot restored %+v; the payload decodes to %+v", got, want)
		}
		if n := svc.Stats().Store.PacksReplayed; n != 1 {
			t.Fatalf("PacksReplayed = %d; want 1", n)
		}
	})
}

// FuzzIngestMemoSnapshot feeds IngestMemoSnapshot arbitrary bytes, as a
// donor replica's GET /v1/memo/snapshot stream would arrive damaged or
// hostile. It must never panic, and every memo blob it reports ingested
// must read back byte-identical through the store. The corpus is the
// snapshot of a service warmed on the 21 workloads with one pack
// registered, plus truncated and garbled copies of it.
//
//	go test ./idiomatic -run '^$' -fuzz '^FuzzIngestMemoSnapshot$' -fuzztime 10s
func FuzzIngestMemoSnapshot(f *testing.F) {
	donor, err := NewService(ServiceOptions{Workers: 2, StateDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := donor.RegisterPack("tiny", tinyIDL, []TopSpec{{Top: "X"}}); err != nil {
		f.Fatal(err)
	}
	if _, err := donor.DetectBatch(context.Background(), workloadRequests(RequestOptions{})); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.WriteMemoSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	donor.Close()
	snap := buf.Bytes()
	header, _, _ := bytes.Cut(snap, []byte("\n"))
	garbled := bytes.Clone(snap)
	garbled[len(garbled)/2] ^= 0x20
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:len(header)+len(snap)/100])
	f.Add(garbled)
	f.Add(header)
	f.Add([]byte(`{"schema":1,"packs":null}` + "\n" + `{"key":"00","blob":"AA=="}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		entries, _, _ := svc.IngestMemoSnapshot(bytes.NewReader(in))
		// The ingested entries are the first ones after the header; a key
		// ingested twice holds its later blob.
		dec := json.NewDecoder(bytes.NewReader(in))
		var hdr snapshotHeader
		if entries > 0 && dec.Decode(&hdr) != nil {
			t.Fatal("entries ingested from a stream whose header does not decode")
		}
		want := map[constraint.SpillKey][]byte{}
		for range entries {
			var ent snapshotEntry
			if err := dec.Decode(&ent); err != nil {
				t.Fatalf("ingested %d entries, but entry decoding failed: %v", entries, err)
			}
			var key constraint.SpillKey
			if n, err := hex.Decode(key[:], []byte(ent.Key)); err != nil || n != len(key) {
				t.Fatalf("ingested an entry with malformed key %q", ent.Key)
			}
			want[key] = ent.Blob
		}
		for key, blob := range want {
			if got, ok := svc.store.Load(key); !ok || !bytes.Equal(got, blob) {
				t.Fatalf("ingested blob %x reads back as %q, %v; want %q", key[:4], got, ok, blob)
			}
		}
	})
}
