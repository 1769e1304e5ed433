package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzSolveRequest decodes a /v1/solve body as the server does (strict
// JSON into SolveRequest) and normalizes it. Normalization must not
// panic, must reject only with a 400 bad_request Error, and an accepted
// request must be a fixed point: normalizing it again changes nothing,
// and its cache key survives a JSON encode/decode round trip.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range []string{
		// README examples.
		`{}`, `{"app":"fw","pes":4}`,
		// The serve tests' /v1/solve bodies.
		`{"app":"lu","pes":4}`, `{"app":"lu","pes":8}`, `{"app":"mm"}`, `{"app":"fw"}`,
		`{"app":"lu","machine":"xd1","mode":"hybrid","method":"model"}`,
		`{"app":"lu","bf":-1,"l":-1}`, `{"app":"lu","b":7}`,
		`{"app":"spmv","n":1024,"density":0.05}`, `{"app":"spmv","n":1024}`, `{"app":"spmv","density":1.5}`,
		`{"app":"cholesky"}`, `{"machine":"xd9"}`, `{"mode":"gpu"}`, `{"method":"oracle"}`,
		`{"n":-5}`, `{"bf":-2}`, `{"block_size":64}`, `{"app":`,
		// Edges: an uncapped size, a negative zero, nulls.
		`{"app":"spmv","method":"sim","n":50000}`, `{"app":"spmv","density":-0}`, `{"bf":null,"l":null}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&q) != nil {
			return // decode writes a 400 itself
		}
		norm, e := q.normalized()
		if e != nil {
			if e.Status != http.StatusBadRequest || e.Code != CodeBadRequest {
				t.Fatalf("%s: rejected with %d %s, want 400 %s", body, e.Status, e.Code, CodeBadRequest)
			}
			return
		}
		again, e := norm.normalized()
		if e != nil {
			t.Fatalf("%s: normalized request %+v rejected: %v", body, norm, e)
		}
		if again.key() != norm.key() { // the key spells every field
			t.Fatalf("%s: normalizing twice changed %q to %q", body, norm.key(), again.key())
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("%s: encode %+v: %v", body, norm, err)
		}
		var back SolveRequest
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: decode %s: %v", body, enc, err)
		}
		back, e = back.normalized()
		if e != nil {
			t.Fatalf("%s: round-tripped %s rejected: %v", body, enc, e)
		}
		if back.key() != norm.key() {
			t.Fatalf("%s: key %q became %q through %s", body, norm.key(), back.key(), enc)
		}
	})
}
