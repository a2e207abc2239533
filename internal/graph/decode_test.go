package graph

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func decodeModel(prompt, hidden int, attrs Attrs) *Model {
	return &Model{
		IR:   IRVersion,
		Name: "decode-under-test",
		Inputs: []Tensor{
			{Name: "prompt", Shape: []int{prompt, hidden}},
		},
		Nodes: []Node{
			{Name: "gen", OpKind: OpDecode, Inputs: []string{"prompt"}, Attrs: attrs},
		},
		Outputs: []string{"gen"},
	}
}

// A Decode node must lower to exactly the workload builder's flattened
// prefill+steps rendering, with layer names prefixed by the node.
func TestDecodeOpLowersToFlat(t *testing.T) {
	spec := workload.DecodeSpec{Layers: 2, Hidden: 64, Heads: 4, FFN: 256, Prompt: 16, Steps: 3}
	m := decodeModel(spec.Prompt, spec.Hidden, Attrs{
		Heads: spec.Heads, Steps: spec.Steps, FFN: spec.FFN, Layers: spec.Layers,
	})
	got, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.Flat()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("lowered %d layers, builder has %d", len(got.Layers), len(want.Layers))
	}
	for i, l := range got.Layers {
		if l.Name != "gen_"+want.Layers[i].Name {
			t.Fatalf("layer %d named %q, want %q", i, l.Name, "gen_"+want.Layers[i].Name)
		}
	}
	if got.MACs() != want.MACs() || got.GEMMCount() != want.GEMMCount() {
		t.Fatalf("lowered %d MACs/%d GEMMs, builder %d/%d",
			got.MACs(), got.GEMMCount(), want.MACs(), want.GEMMCount())
	}
	// The JSON round trip carries the new attrs.
	buf, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	again, err := LowerBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(workload.Canonical(again)) != string(workload.Canonical(got)) {
		t.Fatal("JSON round trip changed the lowered workload")
	}
}

func TestDecodeOpDefaults(t *testing.T) {
	// ffn defaults to 4x hidden, layers to 1, kv to prompt+steps.
	m := decodeModel(8, 32, Attrs{Heads: 2, Steps: 2})
	got, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.DecodeSpec{Layers: 1, Hidden: 32, Heads: 2, FFN: 128, Prompt: 8, Steps: 2}.Flat()
	if got.MACs() != want.MACs() {
		t.Fatalf("defaulted MACs %d, want %d", got.MACs(), want.MACs())
	}
	// Declaring adequate capacity is accepted.
	ok := decodeModel(8, 32, Attrs{Heads: 2, Steps: 2, KV: 10})
	if err := ok.Validate(); err != nil {
		t.Fatalf("kv = prompt+steps rejected: %v", err)
	}
}

func TestDecodeOpValidation(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
		want string
	}{
		{"no steps", decodeModel(8, 32, Attrs{Heads: 2}), "non-positive"},
		{"no heads", decodeModel(8, 32, Attrs{Steps: 2}), "non-positive"},
		{"indivisible heads", decodeModel(8, 30, Attrs{Heads: 4, Steps: 2}), "divisible"},
		{"kv under capacity", decodeModel(8, 32, Attrs{Heads: 2, Steps: 2, KV: 9}), "kv capacity"},
		{"foreign attr", decodeModel(8, 32, Attrs{Heads: 2, Steps: 2, Kernel: 3}), "not consumed"},
		{"steps cap", decodeModel(8, 32, Attrs{Heads: 2, Steps: workload.MaxDecodeSteps + 1}), "exceeds"},
		{"gemm cap", decodeModel(1, 1024, Attrs{Heads: 1024, Steps: 512, FFN: 1, Layers: 128}), "GEMMs exceeds"},
	}
	layered := decodeModel(8, 32, Attrs{Heads: 2, Steps: 2})
	layered.Nodes[0].Layer = "shared"
	cases = append(cases, struct {
		name string
		m    *Model
		want string
	}{"layer tag", layered, "layer tag"})
	fourD := decodeModel(8, 32, Attrs{Heads: 2, Steps: 2})
	fourD.Inputs[0].Shape = []int{1, 3, 8, 8}
	cases = append(cases, struct {
		name string
		m    *Model
		want string
	}{"4-D input", fourD, "2-D"})

	for _, c := range cases {
		err := c.m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.want)
		}
	}
}

// A Decode node composes with surrounding GEMM-bearing nodes; the
// steps-attr on a non-decode op is rejected.
func TestDecodeOpAttrScoping(t *testing.T) {
	m := &Model{
		IR:   IRVersion,
		Name: "attr-scope",
		Inputs: []Tensor{
			{Name: "x", Shape: []int{4, 16}},
		},
		Nodes: []Node{
			{Name: "proj", OpKind: OpGemm, Inputs: []string{"x"}, Attrs: Attrs{Out: 16, Steps: 3}},
		},
		Outputs: []string{"proj"},
	}
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "not consumed") {
		t.Fatalf("steps on Gemm: %v", err)
	}
}
