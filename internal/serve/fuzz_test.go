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

// gridBodies seeds the /v1/design and /v1/sweep fuzzers: the README and
// OPERATIONS.md examples, the serve tests' grids, and edges.
var gridBodies = []string{
	`{"grid":{"apps":["lu"],"pes":[1,2,4,6,8,10]},"top":3}`,
	`{"grid":{"apps":["lu"],"pes":[2,4,6,8],"l":[-1,1,2,4]}}`,
	`{"grid":{"apps":["lu"],"pes":[2,4,8]},"top":3}`, `{"grid":{"pes":[2,4,8]}}`,
	`{"grid":{"apps":["lu"],"pes":[2,4,6,8],"l":[-1,2,4]},"top":3,"screen":true}`,
	`{"grid":{"apps":["lu"],"pes":[2,4]},"refine_margin":0.2}`,
	`{"grid":{"apps":["lu"],"pes":[2,4]},"screen":true,"refine_margin":-1}`,
	`{"grid":{"apps":["spmv"],"n":[1024],"density":[0,0.05]},"top":2}`,
	`{"grid":{"apps":["chol","qr"],"machines":["xd1","rasc"],"modes":["hybrid","fpga-only"]},"workers":2}`,
	`{"grid":{"apps":["cg"]}}`, `{"grid":{"apps":["fft"]}}`, `{"grid":{"machines":["xd9"]}}`,
	`{"grid":{"modes":["gpu"]}}`, `{"grid":{"method":"oracle"}}`, `{"grid":{"density":[1.5]}}`,
	`{"grid":{"density":[-0]}}`, `{"grid":{"n":[-5],"b":[-1]}}`, `{}`, `{"grid":null}`, `{"grid":`,
	`{"grid":{"bf":[0,1,2,3,4,5,6,7,8,9],"l":[0,1,2,3,4,5,6,7,8,9],"pes":[1,2,3,4,5,6,7,8,9,10],"n":[1,2,3]}}`,
}

// fuzzGridRequest decodes body strictly into a fresh *R, as the server
// does, and validates it with check. Validation must not panic, must
// reject only with a 400 bad_request Error, and an accepted body must
// validate identically after a JSON round trip.
func fuzzGridRequest[R any](t *testing.T, body []byte, check func(*R) *Error) {
	var q R
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&q) != nil {
		return // decode writes a 400 itself
	}
	if e := check(&q); e != nil {
		if e.Status != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("%s: rejected with %d %s, want 400 %s", body, e.Status, e.Code, CodeBadRequest)
		}
		return
	}
	enc, err := json.Marshal(q)
	if err != nil {
		t.Fatalf("%s: encode %+v: %v", body, q, err)
	}
	var back R
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("%s: decode %s: %v", body, enc, err)
	}
	if e := check(&back); e != nil {
		t.Fatalf("%s: round-tripped %s rejected: %v", body, enc, e)
	}
}

// FuzzDesignRequest validates /v1/design bodies at the default point
// cap without evaluating any point.
func FuzzDesignRequest(f *testing.F) {
	for _, body := range gridBodies {
		f.Add([]byte(body))
	}
	limit := Config{}.withDefaults().MaxDesignPoints
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzGridRequest(t, body, func(q *DesignRequest) *Error { return q.validate(limit) })
	})
}

// FuzzSweepRequest validates /v1/sweep bodies at the default point cap
// without evaluating any point.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range gridBodies {
		f.Add([]byte(body))
	}
	limit := Config{}.withDefaults().MaxSweepPoints
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzGridRequest(t, body, func(q *SweepRequest) *Error { return q.validate(limit) })
	})
}
