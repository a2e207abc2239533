package workload

import "fmt"

// The model registry: one lookup path over every built-in workload,
// the paper's §VI evaluation set and the extras alike.

// registryEntry binds a model name to its constructor. Construction
// stays lazy — a lookup builds exactly one workload — and the slice
// keeps a stable order for Names().
type registryEntry struct {
	name  string
	extra bool
	build func() Workload
}

// registry lists every built-in model: the six evaluation workloads in
// the paper's order, then the extras.
var registry = []registryEntry{
	{"googlenet", false, GoogleNet},
	{"alexnet", false, AlexNet},
	{"yololite", false, YOLOLite},
	{"mobilenet", false, MobileNet},
	{"resnet", false, ResNet},
	{"bert", false, func() Workload { return BERT(BERTBase) }},
	{"vgg16", true, VGG16},
	{"gpt-decode", true, GPTSmallDecode},
	{"dlrm", true, DLRM},
}

// Lookup finds any built-in workload — evaluation set or extras — by
// name. It is the single lookup path every consumer (library API,
// scheduler admission, serving front end, experiment harness) goes
// through.
func Lookup(name string) (Workload, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(), nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown model %q", name)
}

// Names lists every registered model name in registry order (the
// paper's six first, extras after).
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// All returns the six evaluation workloads in the paper's order.
func All() []Workload {
	var out []Workload
	for _, e := range registry {
		if !e.extra {
			out = append(out, e.build())
		}
	}
	return out
}

// Extras returns the additional workloads beyond the paper's
// evaluation set.
func Extras() []Workload {
	var out []Workload
	for _, e := range registry {
		if e.extra {
			out = append(out, e.build())
		}
	}
	return out
}

// Clone returns a deep copy of w, so a caller holding the copy cannot
// mutate layers out from under a scheduler that admitted the original.
func (w Workload) Clone() Workload {
	out := Workload{Name: w.Name, Layers: make([]Layer, len(w.Layers))}
	for i, l := range w.Layers {
		out.Layers[i] = Layer{Name: l.Name, GEMMs: append([]GEMM(nil), l.GEMMs...)}
	}
	return out
}
