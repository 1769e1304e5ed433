package fpga

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPlacementReference pins every placement the sweeps can reach: for
// the matmul, fw and mv designs at every k from 1 to MaxPEs on every
// device preset, the exact Resources() and the bits of Place's FreqHz.
// The listing is hashed; MaxPEs per design and device is checked in the
// clear so a changed fit reads as such before the digest does.
func TestPlacementReference(t *testing.T) {
	designs := []struct {
		name string
		mk   func(k int) Design
	}{
		{"matmul", func(k int) Design { return NewMatMul(k) }},
		{"fw", func(k int) Design { return NewFW(k) }},
		{"mv", func(k int) Design { return NewMV(k) }},
	}
	wantMax := map[string]int{
		"matmul/XC2VP50": 8, "matmul/XC4VLX160": 10, "matmul/XC4VLX200": 10,
		"fw/XC2VP50": 8, "fw/XC4VLX160": 24, "fw/XC4VLX200": 32,
		"mv/XC2VP50": 7, "mv/XC4VLX160": 10, "mv/XC4VLX200": 10,
	}
	var listing strings.Builder
	for _, dev := range []Device{XC2VP50(), XC4VLX160(), XC4VLX200()} {
		for _, d := range designs {
			key := d.name + "/" + dev.Name
			maxK := MaxPEs(d.mk, dev)
			if maxK != wantMax[key] {
				t.Errorf("%s: MaxPEs = %d, want %d", key, maxK, wantMax[key])
			}
			for k := 1; k <= maxK; k++ {
				des := d.mk(k)
				p, err := Place(des, dev)
				if err != nil {
					t.Fatalf("%s k=%d: %v", key, k, err)
				}
				u := des.Resources()
				fmt.Fprintf(&listing, "%s k=%d slices=%d brams=%d mults=%d freq=%016x\n",
					key, k, u.Slices, u.BlockRAMs, u.Multipliers, math.Float64bits(p.FreqHz))
			}
		}
	}
	const want = "3b2d884458aff4c84efc230f2143189c00b3aee0a24894bb7e995a2d0a21b942"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(listing.String()))); got != want {
		t.Errorf("placement digest = %s, want %s\nlisting:\n%s", got, want, listing.String())
	}
}
