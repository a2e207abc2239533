package workload

import (
	"fmt"
	"strconv"
)

// The six evaluation workloads (§VI-A): layer-accurate renderings of
// the published architectures at batch 1, int8. Spatial dims and
// channel widths follow the original papers; pooling/activation layers
// carry no GEMM work and are folded into the preceding layer's
// boundary.

// AlexNet returns the 8-learned-layer AlexNet (227x227 input).
func AlexNet() Workload {
	layers := []Layer{
		{Name: "conv1", GEMMs: []GEMM{Conv("conv1", 227, 227, 3, 96, 11, 4, 0)}},
		{Name: "conv2", GEMMs: []GEMM{Conv("conv2", 27, 27, 96, 256, 5, 1, 2)}},
		{Name: "conv3", GEMMs: []GEMM{Conv("conv3", 13, 13, 256, 384, 3, 1, 1)}},
		{Name: "conv4", GEMMs: []GEMM{Conv("conv4", 13, 13, 384, 384, 3, 1, 1)}},
		{Name: "conv5", GEMMs: []GEMM{Conv("conv5", 13, 13, 384, 256, 3, 1, 1)}},
		{Name: "fc6", GEMMs: []GEMM{FC("fc6", 9216, 4096)}},
		{Name: "fc7", GEMMs: []GEMM{FC("fc7", 4096, 4096)}},
		{Name: "fc8", GEMMs: []GEMM{FC("fc8", 4096, 1000)}},
	}
	return Workload{Name: "alexnet", Layers: layers}
}

// YOLOLite returns YOLO-lite (224x224 input): seven small convolutions
// designed for non-GPU targets.
func YOLOLite() Workload {
	layers := []Layer{
		{Name: "conv1", GEMMs: []GEMM{Conv("conv1", 224, 224, 3, 16, 3, 1, 1)}},
		{Name: "conv2", GEMMs: []GEMM{Conv("conv2", 112, 112, 16, 32, 3, 1, 1)}},
		{Name: "conv3", GEMMs: []GEMM{Conv("conv3", 56, 56, 32, 64, 3, 1, 1)}},
		{Name: "conv4", GEMMs: []GEMM{Conv("conv4", 28, 28, 64, 128, 3, 1, 1)}},
		{Name: "conv5", GEMMs: []GEMM{Conv("conv5", 14, 14, 128, 128, 3, 1, 1)}},
		{Name: "conv6", GEMMs: []GEMM{Conv("conv6", 14, 14, 128, 256, 3, 1, 1)}},
		{Name: "conv7", GEMMs: []GEMM{Conv("conv7", 7, 7, 256, 125, 1, 1, 0)}},
	}
	return Workload{Name: "yololite", Layers: layers}
}

// MobileNet returns MobileNetV1 (224x224, width 1.0): a pointwise-
// heavy stack whose depthwise stages underfill a systolic array.
func MobileNet() Workload {
	layers := []Layer{
		{Name: "conv1", GEMMs: []GEMM{Conv("conv1", 224, 224, 3, 32, 3, 2, 1)}},
	}
	type stage struct {
		h, cin, cout, stride int
	}
	stages := []stage{
		{112, 32, 64, 1},
		{112, 64, 128, 2},
		{56, 128, 128, 1},
		{56, 128, 256, 2},
		{28, 256, 256, 1},
		{28, 256, 512, 2},
		{14, 512, 512, 1}, {14, 512, 512, 1}, {14, 512, 512, 1}, {14, 512, 512, 1}, {14, 512, 512, 1},
		{14, 512, 1024, 2},
		{7, 1024, 1024, 1},
	}
	for i, s := range stages {
		oh := s.h / s.stride
		name := fmt.Sprintf("dsconv%d", i+2)
		layers = append(layers, Layer{Name: name, GEMMs: []GEMM{
			DWConv(name+"_dw", s.h, s.h, s.cin, 3, s.stride, 1),
			Conv(name+"_pw", oh, oh, s.cin, s.cout, 1, 1, 0),
		}})
	}
	layers = append(layers, Layer{Name: "fc", GEMMs: []GEMM{FC("fc", 1024, 1000)}})
	return Workload{Name: "mobilenet", Layers: layers}
}

// ResNet returns ResNet-50 (224x224): four bottleneck stages.
func ResNet() Workload {
	layers := []Layer{
		{Name: "conv1", GEMMs: []GEMM{Conv("conv1", 224, 224, 3, 64, 7, 2, 3)}},
	}
	type stage struct {
		blocks, mid, out, h int
	}
	stages := []stage{
		{3, 64, 256, 56},
		{4, 128, 512, 28},
		{6, 256, 1024, 14},
		{3, 512, 2048, 7},
	}
	in := 64
	for si, s := range stages {
		for b := 0; b < s.blocks; b++ {
			name := fmt.Sprintf("res%d_%d", si+2, b+1)
			gemms := []GEMM{
				Conv(name+"_1x1a", s.h, s.h, in, s.mid, 1, 1, 0),
				Conv(name+"_3x3", s.h, s.h, s.mid, s.mid, 3, 1, 1),
				Conv(name+"_1x1b", s.h, s.h, s.mid, s.out, 1, 1, 0),
			}
			if b == 0 {
				// Projection shortcut on the first block of each stage.
				gemms = append(gemms, Conv(name+"_proj", s.h, s.h, in, s.out, 1, 1, 0))
			}
			layers = append(layers, Layer{Name: name, GEMMs: gemms})
			in = s.out
		}
	}
	layers = append(layers, Layer{Name: "fc", GEMMs: []GEMM{FC("fc", 2048, 1000)}})
	return Workload{Name: "resnet", Layers: layers}
}

// GoogleNet returns GoogLeNet (Inception-v1, 224x224): the nine
// inception modules plus stem and classifier.
func GoogleNet() Workload {
	layers := []Layer{
		{Name: "conv1", GEMMs: []GEMM{Conv("conv1", 224, 224, 3, 64, 7, 2, 3)}},
		{Name: "conv2", GEMMs: []GEMM{
			Conv("conv2_red", 56, 56, 64, 64, 1, 1, 0),
			Conv("conv2", 56, 56, 64, 192, 3, 1, 1),
		}},
	}
	// Inception module channel table: in, 1x1, 3x3red, 3x3, 5x5red,
	// 5x5, poolproj — the published GoogLeNet configuration.
	type incep struct {
		name                            string
		h, in, c1, c3r, c3, c5r, c5, pp int
	}
	modules := []incep{
		{"3a", 28, 192, 64, 96, 128, 16, 32, 32},
		{"3b", 28, 256, 128, 128, 192, 32, 96, 64},
		{"4a", 14, 480, 192, 96, 208, 16, 48, 64},
		{"4b", 14, 512, 160, 112, 224, 24, 64, 64},
		{"4c", 14, 512, 128, 128, 256, 24, 64, 64},
		{"4d", 14, 512, 112, 144, 288, 32, 64, 64},
		{"4e", 14, 528, 256, 160, 320, 32, 128, 128},
		{"5a", 7, 832, 256, 160, 320, 32, 128, 128},
		{"5b", 7, 832, 384, 192, 384, 48, 128, 128},
	}
	for _, m := range modules {
		name := "inception" + m.name
		layers = append(layers, Layer{Name: name, GEMMs: []GEMM{
			Conv(name+"_1x1", m.h, m.h, m.in, m.c1, 1, 1, 0),
			Conv(name+"_3x3red", m.h, m.h, m.in, m.c3r, 1, 1, 0),
			Conv(name+"_3x3", m.h, m.h, m.c3r, m.c3, 3, 1, 1),
			Conv(name+"_5x5red", m.h, m.h, m.in, m.c5r, 1, 1, 0),
			Conv(name+"_5x5", m.h, m.h, m.c5r, m.c5, 5, 1, 2),
			Conv(name+"_poolproj", m.h, m.h, m.in, m.pp, 1, 1, 0),
		}})
	}
	layers = append(layers, Layer{Name: "fc", GEMMs: []GEMM{FC("fc", 1024, 1000)}})
	return Workload{Name: "googlenet", Layers: layers}
}

// BERTConfig parameterizes the transformer workload.
type BERTConfig struct {
	Layers int
	Hidden int
	Heads  int
	FFN    int
	SeqLen int
}

// BERTBase is the bert-base-uncased configuration at sequence 128.
var BERTBase = BERTConfig{Layers: 12, Hidden: 768, Heads: 12, FFN: 3072, SeqLen: 128}

// BERT returns a transformer encoder workload.
func BERT(cfg BERTConfig) Workload {
	layers := transformer("enc", cfg.Layers, cfg.SeqLen, cfg.Hidden, cfg.Heads, cfg.FFN, cfg.SeqLen, "context")
	return Workload{Name: "bert", Layers: layers}
}

// transformer stacks n blocks named prefix1..prefixN, each an attention
// layer (seq query tokens over ctx keys, context GEMMs named ctxName)
// followed by an FFN layer. The GEMMs of every block share one backing
// array, capped per layer.
func transformer(prefix string, n, seq, hidden, heads, ffn, ctx int, ctxName string) []Layer {
	gemms := make([]GEMM, 0, n*(6+2*heads))
	layers := make([]Layer, 0, 2*n)
	for l := 1; l <= n; l++ {
		name := prefix + strconv.Itoa(l)
		start := len(gemms)
		gemms = appendAttention(gemms, name, seq, hidden, heads, ctx, ctxName)
		mid := len(gemms)
		gemms = append(gemms,
			GEMM{Name: name + "_ffn1", M: seq, K: hidden, N: ffn},
			GEMM{Name: name + "_ffn2", M: seq, K: ffn, N: hidden},
		)
		layers = append(layers,
			Layer{Name: name + "_attn", GEMMs: gemms[start:mid:mid]},
			Layer{Name: name + "_ffn", GEMMs: gemms[mid:len(gemms):len(gemms)]},
		)
	}
	return layers
}
