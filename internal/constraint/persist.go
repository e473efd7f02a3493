package constraint

import (
	"crypto/sha256"
	"encoding/binary"
)

// ProblemStoreID derives a problem's durable content identity from the IDL
// source it is compiled from and its top-level constraint name. Compilation
// is deterministic, so equal (source, top) pairs — across restarts, replicas
// and re-registrations — produce interchangeable problems, and the disk
// spill addresses their memo entries by this digest instead of by process-
// local pointers or registration counters.
func ProblemStoreID(idlSource, top string) [32]byte {
	src := sha256.Sum256([]byte(idlSource))
	h := sha256.New()
	h.Write([]byte("idiomatic-problem-v1\x00"))
	h.Write(src[:])
	h.Write([]byte(top))
	var id [32]byte
	copy(id[:], h.Sum(nil))
	return id
}

// SpillKey is the content-addressed identity of one spilled memo entry:
// a digest over (schema tag × problem StoreID × function fingerprint).
type SpillKey [sha256.Size]byte

func spillKeyFor(prob *Problem, fp Fingerprint) SpillKey {
	h := sha256.New()
	h.Write([]byte("idiomatic-memo-v1\x00"))
	h.Write(prob.StoreID[:])
	h.Write(fp[:])
	var k SpillKey
	copy(k[:], h.Sum(nil))
	return k
}

// SpillStore is the disk layer the solve memo spills to (internal/store
// implements it; the interface lives here so constraint does not import the
// store). Implementations must be safe for concurrent use.
type SpillStore interface {
	// Load returns the payload stored under key; ok is false on a miss or
	// when the stored bytes failed integrity checks (corruption is a miss,
	// never an error surfaced to solving).
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

// encodePayload serializes one memo entry: the step count and the
// position-encoded solutions.
func encodePayload(e *memoEntry) []byte {
	buf := make([]byte, 0, 64+32*len(e.sols))
	buf = append(buf, memoPayloadVersion)
	buf = binary.AppendUvarint(buf, uint64(e.steps))
	buf = binary.AppendUvarint(buf, uint64(len(e.sols)))
	for _, bs := range e.sols {
		buf = binary.AppendUvarint(buf, uint64(len(bs)))
		for _, b := range bs {
			buf = appendSpillString(buf, b.name)
			buf = append(buf, byte(b.ref.kind))
			buf = binary.AppendUvarint(buf, uint64(b.ref.idx))
			buf = appendSpillString(buf, b.ref.ty)
			buf = appendSpillString(buf, b.ref.lit)
		}
	}
	return buf
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

// decodePayload is the inverse of encodePayload. ok is false on any
// malformation — wrong version, short buffer, bad discriminants, counts the
// remaining bytes cannot hold, trailing bytes — so a corrupt or foreign
// payload is a cache miss, never a wrong answer.
func decodePayload(payload []byte) (e *memoEntry, ok bool) {
	d := spillDecoder{buf: payload}
	if d.u8() != memoPayloadVersion {
		return nil, false
	}
	steps := d.uvarint()
	nsols := d.uvarint()
	if d.failed || nsols > d.left()/minSolutionBytes {
		return nil, false
	}
	e = &memoEntry{steps: int(steps), sols: make([][]memoBinding, 0, nsols)}
	for i := uint64(0); i < nsols; i++ {
		nb := d.uvarint()
		if d.failed || nb > d.left()/minBindingBytes {
			return nil, false
		}
		bs := make([]memoBinding, 0, nb)
		for j := uint64(0); j < nb; j++ {
			name := d.str()
			kind := valRefKind(d.u8())
			idx := d.uvarint()
			ty := d.str()
			lit := d.str()
			if d.failed || kind > refUnconstrained || idx > spillSanityMax {
				return nil, false
			}
			bs = append(bs, memoBinding{name: name, ref: valRef{kind: kind, idx: int(idx), ty: ty, lit: lit}})
		}
		e.sols = append(e.sols, bs)
	}
	if d.failed || len(d.buf) != d.off {
		return nil, false
	}
	return e, true
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

func (d *spillDecoder) str() string {
	n := d.uvarint()
	if d.failed || n > d.left() {
		d.failed = true
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
