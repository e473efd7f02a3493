package constraint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
)

// problemID derives Problem.ID. Default options hash exactly the bytes of the
// original (source digest, top) identity, so state dirs written by earlier
// builds keep hitting. A zero source digest yields the zero ID.
func problemID(src [32]byte, top string, opts CompileOptions) [32]byte {
	var id [32]byte
	if src == id {
		return id
	}
	h := sha256.New()
	h.Write([]byte("idiomatic-problem-v1\x00"))
	h.Write(src[:])
	h.Write([]byte(top))
	if opts.Ordering != OrderGreedy || len(opts.Params) > 0 {
		// fmt prints a map's entries sorted by key.
		fmt.Fprintf(h, "\x00%d %v", opts.Ordering, opts.Params)
	}
	h.Sum(id[:0])
	return id
}

// SpillKey is the content-addressed identity of one spilled memo entry:
// a digest over (schema tag × problem ID × function fingerprint).
type SpillKey [sha256.Size]byte

// spill derives the disk address of the memo entry under k.
func (k solveKey) spill() SpillKey {
	h := sha256.New()
	h.Write([]byte("idiomatic-memo-v1\x00"))
	h.Write(k.id[:])
	h.Write(k.fp[:])
	var sk SpillKey
	h.Sum(sk[:0])
	return sk
}

// SpillStore is the disk layer the solve memo spills to (internal/store
// implements it; the interface lives here so constraint does not import the
// store). Implementations must be safe for concurrent use.
type SpillStore interface {
	// Load returns the payload stored under key; ok is false on a miss or
	// when the stored bytes failed integrity checks (corruption is a miss,
	// never an error surfaced to solving). The caller keeps the returned
	// bytes as a resident memo entry, so the store must not reuse them.
	Load(key SpillKey) (payload []byte, ok bool)
	// Write stores payload under key synchronously and crash-safely
	// (temp file + rename). Used on the eviction path, where losing the
	// entry would erode the disk hit rate.
	Write(key SpillKey, payload []byte) error
	// WriteAsync enqueues a write of payload under key; done is called on
	// the writer goroutine with the outcome. Returns false when the queue is
	// full or the store is closing; then done never runs.
	WriteAsync(key SpillKey, payload []byte, done func(err error)) bool
}

// memoPayloadVersion is the schema version of the spilled entry payload
// (the bytes inside the store's integrity container). Any mismatch decodes
// as a miss, so a binary with a newer codec simply re-solves and re-spills.
const memoPayloadVersion = 2

// encodePayload serializes one solve outcome as a memo entry: the step
// count and the solutions, each binding name-ordered and position-encoded.
// ok is false when a value cannot be position-encoded against info.
func encodePayload(sols []Solution, steps int, info *analysis.Info) ([]byte, bool) {
	buf := make([]byte, 0, 64+32*len(sols))
	buf = append(buf, memoPayloadVersion)
	buf = binary.AppendUvarint(buf, uint64(steps))
	buf = binary.AppendUvarint(buf, uint64(len(sols)))
	var names []string
	for _, sol := range sols {
		names = slices.Grow(names[:0], len(sol))
		for n := range sol {
			names = append(names, n)
		}
		sort.Strings(names)
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, n := range names {
			ref, ok := encodeVal(sol[n], info)
			if !ok {
				return nil, false
			}
			buf = appendSpillString(buf, n)
			buf = append(buf, byte(ref.kind))
			buf = binary.AppendUvarint(buf, uint64(ref.idx))
			buf = appendSpillString(buf, ref.ty)
			buf = appendSpillString(buf, ref.lit)
		}
	}
	return buf, true
}

// spillSanityMax bounds decoded instruction indices; a well-formed payload
// never approaches it, so anything larger is corruption and decodes as a
// miss.
const spillSanityMax = 1 << 20

// Minimum encoded sizes: a solution is at least its binding count (1 byte),
// a binding at least its name length, kind, index, type length and literal
// length (5 bytes). Decoded counts are checked against the bytes left, so a
// payload can never make the decoder allocate more than it could fill.
const (
	minSolutionBytes = 1
	minBindingBytes  = 5
)

// decodePayload is the inverse of encodePayload: it decodes a memo entry
// onto info. ok is false on any malformation — wrong version, short buffer,
// bad discriminants, counts the remaining bytes cannot hold, binding names
// out of order, a value that is not in info or does not re-encode to the
// reference read, trailing bytes — so a corrupt or foreign payload is a
// cache miss, never a wrong answer, and every accepted payload is the one
// encoding of its outcome. Binding names are syms' strings where it holds
// them (syms may be nil), so a hit does not allocate its names.
func decodePayload(payload []byte, info *analysis.Info, syms *symtab) (sols []Solution, steps int, ok bool) {
	d := spillDecoder{buf: payload}
	if d.u8() != memoPayloadVersion {
		return nil, 0, false
	}
	steps = int(d.uvarint())
	nsols := d.uvarint()
	if d.failed || nsols > d.left()/minSolutionBytes {
		return nil, 0, false
	}
	pool := &operandPool{info: info}
	sols = make([]Solution, 0, nsols)
	for i := uint64(0); i < nsols; i++ {
		nb := d.uvarint()
		if d.failed || nb > d.left()/minBindingBytes {
			return nil, 0, false
		}
		sol := make(Solution, nb)
		var prev []byte
		for j := uint64(0); j < nb; j++ {
			name := d.bytes()
			kind := valRefKind(d.u8())
			idx := d.uvarint()
			start := d.off
			d.bytes() // type
			d.bytes() // literal
			if d.failed || kind > refUnconstrained || idx > spillSanityMax || j > 0 && bytes.Compare(name, prev) <= 0 {
				return nil, 0, false
			}
			v, ok := decodeVal(kind, int(idx), payload[start:d.off], info, pool)
			if !ok {
				return nil, 0, false
			}
			sol[syms.name(name)] = v
			prev = name
		}
		sols = append(sols, sol)
	}
	if d.failed || len(d.buf) != d.off {
		return nil, 0, false
	}
	return sols, steps, true
}

func appendSpillString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type spillDecoder struct {
	buf    []byte
	off    int
	failed bool
}

// left reports the undecoded byte count.
func (d *spillDecoder) left() uint64 { return uint64(len(d.buf) - d.off) }

func (d *spillDecoder) u8() byte {
	if d.failed || d.off >= len(d.buf) {
		d.failed = true
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *spillDecoder) uvarint() uint64 {
	if d.failed {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	// A zero final byte means a padded encoding; accepting it would let two
	// payloads decode to the same entry, so only the minimal form is valid.
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.failed = true
		return 0
	}
	d.off += n
	return v
}

// bytes reads a length-prefixed string, returning it in place.
func (d *spillDecoder) bytes() []byte {
	n := d.uvarint()
	if d.failed || n > d.left() {
		d.failed = true
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
