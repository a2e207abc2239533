package taskimage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isolator"
	"repro/internal/npu"
	"repro/internal/workload"
)

func sampleImage(t *testing.T) *Image {
	t.Helper()
	w := workload.Workload{
		Name: "img",
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g0", M: 32, K: 64, N: 32}}},
			{Name: "l1", GEMMs: []workload.GEMM{{Name: "g1", M: 16, K: 32, N: 48}}},
		},
	}
	prog, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	return &Image{
		Name:        "img",
		Program:     prog,
		Expected:    prog.Measurement(),
		KeyID:       "owner-key",
		SealedModel: bytes.Repeat([]byte{0xAB}, 777),
		Topology:    isolator.Topology{W: 2, H: 2},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage(t)
	buf, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.KeyID != img.KeyID {
		t.Fatalf("strings: %q %q", got.Name, got.KeyID)
	}
	if got.Expected != img.Expected {
		t.Fatal("expected digest mismatch")
	}
	if got.Topology != img.Topology {
		t.Fatalf("topology %v", got.Topology)
	}
	if !bytes.Equal(got.SealedModel, img.SealedModel) {
		t.Fatal("sealed model mismatch")
	}
	// The measurement survives serialization — the monitor verifies
	// against the decoded program, so this is the security-relevant
	// invariant.
	if got.Program.Measurement() != img.Program.Measurement() {
		t.Fatal("program measurement changed across the wire")
	}
	if got.Program.SourceDigest != img.Program.SourceDigest {
		t.Fatal("source digest lost across the wire")
	}
	if got.Program.SourceDigest == ([32]byte{}) {
		t.Fatal("compiled program carries a zero source digest")
	}
	if len(got.Program.Ops) != len(img.Program.Ops) {
		t.Fatalf("op count %d vs %d", len(got.Program.Ops), len(img.Program.Ops))
	}
	for i := range got.Program.Ops {
		if got.Program.Ops[i] != img.Program.Ops[i] {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, got.Program.Ops[i], img.Program.Ops[i])
		}
	}
}

// Encode refuses every image Decode would refuse.
func TestEncodeRejectsBadInputs(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil image encoded")
	}
	cases := []struct {
		name   string
		mutate func(*Image)
	}{
		{"oversized name", func(img *Image) { img.Name = string(bytes.Repeat([]byte{'a'}, MaxNameLen+1)) }},
		{"op kind above OpCompute", func(img *Image) { img.Program.Ops[0].Kind = npu.OpCompute + 1 }},
		{"topology over 64", func(img *Image) { img.Topology = isolator.Topology{W: 65, H: 1} }},
		{"more than 2^20 layers", func(img *Image) { img.Program.Layers = 1<<20 + 1 }},
		{"more than 2^32 spad bytes", func(img *Image) { img.Program.SpadBytes = 1<<32 + 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := sampleImage(t)
			c.mutate(img)
			if _, err := Encode(img); err == nil {
				t.Fatal("encoded an image Decode rejects")
			}
		})
	}
}

func TestDecodeRejectsFraming(t *testing.T) {
	img := sampleImage(t)
	buf, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	// Bad magic.
	bad := append([]byte{}, buf...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Bad version.
	bad = append([]byte{}, buf...)
	bad[4] ^= 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	// A version-2 image: nine-word op records with two reserved zero
	// words after the cycles.
	op0 := opSection(buf, img)
	v2 := append([]byte{}, buf[:op0]...)
	binary.LittleEndian.PutUint16(v2[4:], 2)
	for _, op := range img.Program.Ops {
		rec := npu.AppendOp(nil, op)
		v2 = append(v2, rec[:32]...)         // kind, VA, bytes, cycles
		v2 = append(v2, make([]byte, 16)...) // two reserved words
		v2 = append(v2, rec[32:]...)         // layer, flags, MACs
	}
	v2 = append(v2, buf[op0+len(img.Program.Ops)*npu.OpRecordBytes:]...)
	if _, err := Decode(v2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2 image: %v", err)
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, buf...), 0x00)); !errors.Is(err, ErrTrailing) {
		t.Fatal("trailing byte accepted")
	}
	// Every truncation point fails cleanly.
	for cut := 0; cut < len(buf); cut += 7 {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Empty input.
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeRejectsHugeClaims(t *testing.T) {
	img := sampleImage(t)
	buf, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	// Find the op-count field by rebuilding a prefix: easier to craft a
	// minimal image claiming MaxOps+1 ops. Name/keyID empty.
	crafted := []byte{}
	le32 := func(v uint32) { crafted = append(crafted, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
	le16 := func(v uint16) { crafted = append(crafted, byte(v), byte(v>>8)) }
	le64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			crafted = append(crafted, byte(v>>(8*i)))
		}
	}
	le32(Magic)
	le16(Version)
	le32(0) // name
	le32(0) // program name
	le32(0) // keyID
	crafted = append(crafted, make([]byte, 32)...)
	le32(1) // topo W
	le32(1) // topo H
	le32(1) // layers
	for i := 0; i < 5; i++ {
		le64(0) // macs, ideal, spad, live, acc
	}
	crafted = append(crafted, make([]byte, 32)...) // source digest
	le32(MaxOps + 1)
	if _, err := Decode(crafted); !errors.Is(err, ErrOversized) {
		t.Fatalf("huge op count: %v", err)
	}
	_ = buf
}

// opSection returns the offset of an encoded image's first op record:
// the op section sits just before the sealed model's section.
func opSection(buf []byte, img *Image) int {
	return len(buf) - 4 - len(img.SealedModel) - len(img.Program.Ops)*npu.OpRecordBytes
}

// The op kinds of the retired NoC send/receive ops (3, 4) fail
// decoding, and so does any reserved bit of an op's flags word (every
// bit but Tile and Weight), which the decoder could not re-encode.
func TestDecodeRejectsRetiredKindsAndReservedWords(t *testing.T) {
	img := sampleImage(t)
	buf, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	op0 := opSection(buf, img)
	for _, c := range []struct {
		name string
		word int
		val  uint64
	}{
		{"kind-3", 0, 3},
		{"kind-4", 0, 4},
		{"flag-bit-2", 5, 1 << 2},
		{"flag-bit-63", 5, 1 << 63},
	} {
		bad := append([]byte{}, buf...)
		binary.LittleEndian.PutUint64(bad[op0+8*c.word:], c.val)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := Decode(buf); err != nil {
		t.Fatalf("unmodified image rejected: %v", err)
	}
}

// Property (decoder hardening): random mutations of a valid image
// never panic the decoder, and any accepted mutation still yields a
// structurally sane program.
func TestDecodeSurvivesMutation(t *testing.T) {
	img := sampleImage(t)
	orig, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		buf := append([]byte{}, orig...)
		for flips := 0; flips < 8; flips++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		got, err := Decode(buf)
		if err != nil {
			return true // rejection is fine
		}
		// Accepted: basic sanity only.
		if got.Program == nil || len(got.Program.Ops) > MaxOps {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random truncations never panic.
func TestDecodeSurvivesTruncation(t *testing.T) {
	img := sampleImage(t)
	orig, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		n := int(cut) % (len(orig) + 1)
		_, _ = Decode(orig[:n])
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
