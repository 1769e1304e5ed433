package machine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validDoc is a machine file mirroring the XD1 preset's numbers.
const validDoc = `{
  "name": "test box",
  "nodes": 4,
  "processor": "opteron22",
  "device": "XC2VP50",
  "fpga_dram_bandwidth": 2.8e9,
  "sram_banks": 4,
  "sram_bank_bytes": 4194304,
  "sram_bandwidth": 12.8e9,
  "link_bandwidth": 2e9,
  "links_per_node": 2,
  "latency_seconds": 1.8e-6
}`

func TestParseJSON(t *testing.T) {
	c, err := ParseJSON([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test box" || c.Nodes != 4 || c.Device.Name != "XC2VP50" {
		t.Fatalf("bad config: %+v", c)
	}
	if c.Fabric.Nodes != 4 || c.Fabric.LinkBandwidth != 2e9 {
		t.Fatalf("bad fabric: %+v", c.Fabric)
	}
	if c.Processor == nil || c.Processor().Name == "" {
		t.Fatal("processor not resolved")
	}
	// The parsed config must build a full system without panicking.
	if _, err := New(c); err != nil {
		t.Fatalf("New on parsed config: %v", err)
	}
}

// Every non-positive parameter must be rejected at load time with an
// error naming the offending JSON field — not deep in a run as a mem or
// fabric panic.
func TestParseJSONRejectsBadFields(t *testing.T) {
	cases := []struct {
		replace string // substring of validDoc to replace
		with    string
		field   string // must appear in the error
	}{
		{`"nodes": 4`, `"nodes": 0`, "nodes"},
		{`"fpga_dram_bandwidth": 2.8e9`, `"fpga_dram_bandwidth": 0`, "fpga_dram_bandwidth"},
		{`"fpga_dram_bandwidth": 2.8e9`, `"fpga_dram_bandwidth": -1`, "fpga_dram_bandwidth"},
		{`"sram_banks": 4`, `"sram_banks": 0`, "sram_banks"},
		{`"sram_bank_bytes": 4194304`, `"sram_bank_bytes": -8`, "sram_bank_bytes"},
		{`"sram_bandwidth": 12.8e9`, `"sram_bandwidth": 0`, "sram_bandwidth"},
		{`"link_bandwidth": 2e9`, `"link_bandwidth": 0`, "link_bandwidth"},
		{`"links_per_node": 2`, `"links_per_node": 0`, "links_per_node"},
		{`"latency_seconds": 1.8e-6`, `"latency_seconds": -1`, "latency_seconds"},
		{`"processor": "opteron22"`, `"processor": "itanium"`, "processor"},
		{`"device": "XC2VP50"`, `"device": "XC9"`, "device"},
	}
	for _, c := range cases {
		doc := strings.Replace(validDoc, c.replace, c.with, 1)
		if doc == validDoc {
			t.Fatalf("case %q did not modify the document", c.with)
		}
		_, err := ParseJSON([]byte(doc))
		if err == nil {
			t.Errorf("%s accepted", c.with)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error for %s does not name field %q: %v", c.with, c.field, err)
		}
	}
}

// A node count past MaxNodes is rejected with an error naming the
// field, before any build: ten million nodes once passed validation and
// then ran New until the process was killed.
func TestParseJSONRejectsHugeNodeCount(t *testing.T) {
	for _, n := range []int{MaxNodes + 1, 10000000, 1 << 62} {
		doc := strings.Replace(validDoc, `"nodes": 4`, fmt.Sprintf(`"nodes": %d`, n), 1)
		_, err := ParseJSON([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), `"nodes"`) {
			t.Errorf("nodes=%d: err %v, want a rejection naming the nodes field", n, err)
		}
	}
	doc := strings.Replace(validDoc, `"nodes": 4`, fmt.Sprintf(`"nodes": %d`, MaxNodes), 1)
	c, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatalf("nodes=MaxNodes rejected: %v", err)
	}
	if s, err := New(c); err != nil || len(s.Nodes) != MaxNodes {
		t.Fatalf("New at MaxNodes: %v", err)
	}
}

// FuzzParseJSON feeds arbitrary machine files through ParseJSON and
// New: both must reject with a machine: error or accept, never panic,
// and an accepted file must build in bounded time.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(validDoc))
	for _, seed := range []string{
		strings.Replace(validDoc, `"nodes": 4`, `"nodes": 10000000`, 1),
		strings.Replace(validDoc, `"sram_banks": 4`, `"sram_banks": 9223372036854775807`, 1),
		strings.Replace(validDoc, `"latency_seconds": 1.8e-6`, `"latency_seconds": 1e400`, 1),
		`{}`, `null`, `[]`, `{"nodes": -1}`, `{"nodez": 4}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseJSON(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "machine: ") {
				t.Fatalf("rejection %q is not a machine error", err)
			}
			return
		}
		start := time.Now()
		s, err := New(c)
		if err != nil {
			t.Fatalf("New rejected a parsed config: %v", err)
		}
		if len(s.Nodes) != c.Nodes || c.Nodes > MaxNodes {
			t.Fatalf("built %d nodes for %d (max %d)", len(s.Nodes), c.Nodes, MaxNodes)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("New took %v for %d nodes", d, c.Nodes)
		}
	})
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	doc := strings.Replace(validDoc, `"nodes": 4`, `"nodes": 4, "nodez": 9`, 1)
	if _, err := ParseJSON([]byte(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestResolve(t *testing.T) {
	if c, err := Resolve("xd1"); err != nil || c.Nodes != 6 {
		t.Fatalf("preset resolve: %+v, %v", c, err)
	}
	path := filepath.Join(t.TempDir(), "box.json")
	if err := os.WriteFile(path, []byte(validDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Resolve(path)
	if err != nil || c.Name != "test box" {
		t.Fatalf("file resolve: %+v, %v", c, err)
	}
	if _, err := Resolve("cray-3"); err == nil {
		t.Fatal("unknown name resolved")
	}
}
