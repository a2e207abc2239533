package workload

import (
	"strings"
	"testing"
)

func TestDecodeSpecValidate(t *testing.T) {
	good := DefaultDecodeSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []DecodeSpec{
		{},
		{Layers: 1, Hidden: 10, Heads: 3, FFN: 4, Prompt: 2, Steps: 1},                  // hidden % heads
		{Layers: 1, Hidden: 8, Heads: 2, FFN: 4, Prompt: 2, Steps: MaxDecodeSteps + 1},  // steps cap
		{Layers: 1, Hidden: 8, Heads: 2, FFN: 4, Prompt: MaxDecodeContext, Steps: 1},    // context cap
		{Layers: MaxDecodeLayers + 1, Hidden: 8, Heads: 2, FFN: 4, Prompt: 2, Steps: 1}, // depth cap
		{Layers: 1, Hidden: MaxDecodeWidth + 2, Heads: 2, FFN: 4, Prompt: 2, Steps: 1},  // width cap
		{Layers: 1, Hidden: 8, Heads: 2, FFN: 4, Prompt: 2, Steps: 0},                   // no steps
		// GEMM cap: 8,607,105,792 and 134,873,856 GEMMs; the second
		// keeps heads within the graph IR's MaxHeads.
		{Layers: 128, Hidden: 65536, Heads: 65536, FFN: 1, Prompt: 1, Steps: 512},
		{Layers: 128, Hidden: 1024, Heads: 1024, FFN: 1, Prompt: 1, Steps: 512},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, s)
		}
	}
}

func TestDecodeStepShapesGrow(t *testing.T) {
	d := DecodeSpec{Layers: 2, Hidden: 64, Heads: 4, FFN: 128, Prompt: 16, Steps: 3}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for tok := 0; tok < d.Steps; tok++ {
		step := d.Step(tok)
		if err := step.Validate(); err != nil {
			t.Fatalf("step %d invalid: %v", tok, err)
		}
		wantCtx := d.Prompt + tok + 1
		found := false
		for _, l := range step.Layers {
			for _, g := range l.GEMMs {
				if g.M != 1 {
					t.Fatalf("step %d GEMM %q has M=%d, want 1 (GEMV/thin-GEMM)", tok, g.Name, g.M)
				}
				if strings.Contains(g.Name, "_scores_") {
					found = true
					if g.N != wantCtx {
						t.Fatalf("step %d scores N=%d, want growing context %d", tok, g.N, wantCtx)
					}
				}
			}
		}
		if !found {
			t.Fatalf("step %d has no score GEMMs", tok)
		}
	}
}

func TestDecodePrefillMatchesAttentionBuilder(t *testing.T) {
	d := DecodeSpec{Layers: 3, Hidden: 96, Heads: 6, FFN: 384, Prompt: 24, Steps: 2}
	pre := d.Prefill()
	if err := pre.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same arithmetic as the existing attention (BERT) builder at the
	// prompt's sequence length: identical MACs, layer count, GEMM count.
	ref := BERT(BERTConfig{Layers: d.Layers, Hidden: d.Hidden, Heads: d.Heads, FFN: d.FFN, SeqLen: d.Prompt})
	if pre.MACs() != ref.MACs() {
		t.Fatalf("prefill MACs %d != attention builder MACs %d", pre.MACs(), ref.MACs())
	}
	if len(pre.Layers) != len(ref.Layers) || pre.GEMMCount() != ref.GEMMCount() {
		t.Fatalf("prefill structure %d layers/%d GEMMs, builder %d/%d",
			len(pre.Layers), pre.GEMMCount(), len(ref.Layers), ref.GEMMCount())
	}
}

func TestDecodePassesAndFlat(t *testing.T) {
	d := DecodeSpec{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Prompt: 8, Steps: 2}
	passes := d.Passes()
	if len(passes) != d.Steps+1 {
		t.Fatalf("got %d passes, want %d", len(passes), d.Steps+1)
	}
	flat := d.Flat()
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
	var wantLayers int
	var wantMACs int64
	for _, p := range passes {
		wantLayers += len(p.Layers)
		wantMACs += p.MACs()
	}
	if len(flat.Layers) != wantLayers || flat.MACs() != wantMACs {
		t.Fatalf("flat has %d layers/%d MACs, want %d/%d", len(flat.Layers), flat.MACs(), wantLayers, wantMACs)
	}
	if flat.Name != d.ModelName() {
		t.Fatalf("flat name %q, want %q", flat.Name, d.ModelName())
	}
	// Determinism: two renderings are byte-identical.
	if string(Canonical(d.Flat())) != string(Canonical(flat)) {
		t.Fatal("Flat is not deterministic")
	}
}

func TestDecodeKVBytes(t *testing.T) {
	d := DecodeSpec{Layers: 2, Hidden: 64, Heads: 4, FFN: 128, Prompt: 10, Steps: 6}
	want := int64(2 * 2 * 64 * 16) // 2 (K,V) * layers * hidden * (prompt+steps)
	if got := d.KVBytes(); got != want {
		t.Fatalf("KVBytes=%d, want %d", got, want)
	}
}
