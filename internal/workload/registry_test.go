package workload

import (
	"bytes"
	"testing"
)

func TestLookupFindsEveryModel(t *testing.T) {
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if w.Name != name {
			t.Fatalf("Lookup(%q) returned %q", name, w.Name)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Lookup("no-such-model"); err == nil {
		t.Fatal("unknown model resolved")
	}
}

func TestRegistryOrderAndPartition(t *testing.T) {
	names := Names()
	if len(names) != len(All())+len(Extras()) {
		t.Fatalf("Names() has %d entries, All+Extras %d", len(names), len(All())+len(Extras()))
	}
	for i, w := range All() {
		if names[i] != w.Name {
			t.Fatalf("All()[%d] = %s, Names()[%d] = %s", i, w.Name, i, names[i])
		}
	}
	for i, w := range Extras() {
		if names[len(All())+i] != w.Name {
			t.Fatalf("Extras()[%d] = %s out of order", i, w.Name)
		}
	}
}

func TestCanonicalDigestSeparatesModels(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		d := Digest(w)
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision: %s vs %s", prev, name)
		}
		seen[d] = name
		// Canonical is deterministic.
		if !bytes.Equal(Canonical(w), Canonical(w)) {
			t.Fatalf("%s: canonical bytes unstable", name)
		}
	}
	// Renaming a layer changes the digest even when every GEMM is
	// untouched — provenance, not just shapes.
	w, _ := Lookup("dlrm")
	w2, _ := Lookup("dlrm")
	w2.Layers[0].Name = "renamed"
	if Digest(w) == Digest(w2) {
		t.Fatal("digest blind to layer names")
	}
	// Efficiency is part of the canonical form.
	w3, _ := Lookup("dlrm")
	w3.Layers[0].GEMMs[0].Efficiency = 0.5
	if Digest(w) == Digest(w3) {
		t.Fatal("digest blind to efficiency")
	}
}
