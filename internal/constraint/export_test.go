package constraint

import "repro/internal/analysis"

// EncodePayloadForTest encodes one solve outcome as its spill payload.
func EncodePayloadForTest(sols []Solution, steps int, info *analysis.Info) ([]byte, bool) {
	e, ok := encodeEntry(sols, steps, info)
	if !ok {
		return nil, false
	}
	return encodePayload(e), true
}

// ReencodePayloadForTest decodes a spill payload and encodes the result
// again; ok is false when the decoder rejects the payload.
func ReencodePayloadForTest(payload []byte) ([]byte, bool) {
	e, ok := decodePayload(payload)
	if !ok {
		return nil, false
	}
	return encodePayload(e), true
}
