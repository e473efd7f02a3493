package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/idiomatic"
	"repro/internal/workloads"
)

// FuzzDecodeBatch checks the request decoder every batch endpoint shares:
// for any body and X-Deadline-Ms header, DecodeBatch must never panic. A
// body it accepts writes no response and yields at least one request, each
// carrying the header's deadline unless it set its own; a body it rejects
// gets a non-2xx status whose body decodes as the v1 ErrorEnvelope, with a
// code and a message. The corpus is seeded with the suite's 21 requests
// plus malformed bodies and headers. Crashers found by fuzzing are committed
// under testdata/fuzz/FuzzDecodeBatch and replay in every `go test` run.
func FuzzDecodeBatch(f *testing.F) {
	for _, w := range workloads.All() {
		body, err := json.Marshal(idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
	}
	f.Add([]byte(` [{"name":"a.c","source":"int f(){return 0;}","deadline_ms":5},{"source":"x"}]`), "250")
	for _, body := range []string{"", "null", "[]", "[null]", "[", "{", "not json", `{"name":1}`,
		`{"source":"x","deadline_ms":-1}`, `[{"idioms":"GEMM"}]`, "\xff\xfe"} {
		f.Add([]byte(body), "")
	}
	for _, h := range []string{"0", "-5", "1.5", "abc", "99999999999999999999"} {
		f.Add([]byte(`{"source":"x"}`), h)
	}
	deadline := func(q *idiomatic.DetectRequest) *int64 { return &q.DeadlineMs }
	f.Fuzz(func(t *testing.T, body []byte, header string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		if header != "" {
			r.Header.Set("X-Deadline-Ms", header)
		}
		w := httptest.NewRecorder()
		reqs, ok := DecodeBatch(w, r, deadline)
		if ok {
			if w.Body.Len() != 0 || len(reqs) == 0 {
				t.Fatalf("accepted body wrote %q and decoded %d requests", w.Body.String(), len(reqs))
			}
			if ms, err := strconv.ParseInt(header, 10, 64); err == nil && ms > 0 {
				for i, q := range reqs {
					if q.DeadlineMs == 0 {
						t.Fatalf("request %d lost the header deadline %d", i, ms)
					}
				}
			}
			return
		}
		if w.Code < 300 {
			t.Fatalf("rejected body answered with status %d", w.Code)
		}
		var env idiomatic.ErrorEnvelope
		dec := json.NewDecoder(w.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("status %d body is not the v1 error envelope (%v): %q", w.Code, err, w.Body.String())
		}
	})
}
