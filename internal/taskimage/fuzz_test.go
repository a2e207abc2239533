package taskimage

import (
	"bytes"
	"testing"

	"repro/internal/isolator"
	"repro/internal/npu"
	"repro/internal/workload"
)

// FuzzDecode drives the untrusted-image decoder with arbitrary bytes.
// The security property is "no panic, no over-allocation"; acceptance
// additionally implies a structurally bounded program whose ops all
// have a kind the executor knows, and bytes that Encode reproduces
// exactly, so no part of an accepted image escapes the measurement or
// the decoder's checks. Run longer with
// `go test -fuzz=FuzzDecode ./internal/taskimage`.
func FuzzDecode(f *testing.F) {
	// Seed with a valid image and a few degenerate corpora.
	w := workload.Workload{
		Name: "fuzz",
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g", M: 16, K: 16, N: 16}}},
		},
	}
	prog, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		f.Fatal(err)
	}
	seed := &Image{
		Name:     "fuzz",
		Program:  prog,
		Expected: prog.Measurement(),
		Topology: isolator.Topology{W: 1, H: 1},
	}
	valid, err := Encode(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x73, 0x50, 0x4e, 0x55}) // bare magic
	f.Add(valid[:len(valid)/2])
	// A reserved flag bit (bit 2) on the first op.
	flagged := append([]byte{}, valid...)
	flagged[opSection(valid, seed)+40] |= 1 << 2
	f.Add(flagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		if img.Program == nil {
			t.Fatal("accepted image with nil program")
		}
		if len(img.Program.Ops) > MaxOps || len(img.SealedModel) > MaxModelBytes {
			t.Fatal("accepted image exceeding caps")
		}
		for i, op := range img.Program.Ops {
			if op.Kind > npu.OpCompute {
				t.Fatalf("accepted op %d with kind %d", i, op.Kind)
			}
		}
		again, err := Encode(img)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("Encode(Decode(b)) differs from b")
		}
	})
}
