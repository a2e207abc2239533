package workload

import "fmt"

// Autoregressive decode (beyond the paper's six evaluation models, like
// the other extras): a prompt prefill pass followed by N single-token
// decode steps whose attention reads a growing KV cache. The builders
// here only describe the arithmetic — per-step GEMV/thin-GEMM shapes
// over the growing sequence — while residency of the KV cache itself is
// the monitor's business (internal/monitor, §IV-B ID-bit rules).

// Decode size caps. They bound every per-step GEMM product well inside
// int64 and keep a hostile serve submission from ballooning compile
// time.
const (
	// MaxDecodeSteps caps the decode-step count of one request.
	MaxDecodeSteps = 512
	// MaxDecodeContext caps Prompt+Steps (the final context length).
	MaxDecodeContext = 1 << 16
	// MaxDecodeLayers caps the transformer depth.
	MaxDecodeLayers = 128
	// MaxDecodeWidth caps Hidden and FFN.
	MaxDecodeWidth = 1 << 16
	// MaxDecodeGEMMs caps the GEMMs of all passes together,
	// (Steps+1)·Layers·(6+2·Heads): heads multiply the per-pass count,
	// so the caps above alone admit billions.
	MaxDecodeGEMMs = 1 << 16
)

// DecodeSpec describes one autoregressive decode request: a GPT-style
// transformer (Layers blocks of attention + FFN) run as a prefill over
// Prompt tokens and then Steps single-token decode steps. Each step t
// attends over a context of Prompt+t+1 tokens, so the score/context
// GEMMs grow with the sequence while everything else stays M=1.
type DecodeSpec struct {
	Layers int `json:"layers"`
	Hidden int `json:"hidden"`
	Heads  int `json:"heads"`
	FFN    int `json:"ffn"`
	// Prompt is the prefill sequence length.
	Prompt int `json:"prompt"`
	// Steps is the number of decode steps after prefill. The prefill
	// emits the first token, so a completed request produced Steps+1
	// tokens.
	Steps int `json:"steps"`
}

// Validate bounds every dimension.
func (d DecodeSpec) Validate() error {
	if d.Layers <= 0 || d.Hidden <= 0 || d.Heads <= 0 || d.FFN <= 0 || d.Prompt <= 0 || d.Steps <= 0 {
		return fmt.Errorf("workload: decode spec has non-positive dims %+v", d)
	}
	if d.Hidden%d.Heads != 0 {
		return fmt.Errorf("workload: decode hidden %d not divisible by %d heads", d.Hidden, d.Heads)
	}
	if d.Layers > MaxDecodeLayers {
		return fmt.Errorf("workload: decode layers %d exceeds %d", d.Layers, MaxDecodeLayers)
	}
	if d.Hidden > MaxDecodeWidth || d.FFN > MaxDecodeWidth {
		return fmt.Errorf("workload: decode width %dx%d exceeds %d", d.Hidden, d.FFN, MaxDecodeWidth)
	}
	if d.Steps > MaxDecodeSteps {
		return fmt.Errorf("workload: decode steps %d exceeds %d", d.Steps, MaxDecodeSteps)
	}
	if d.Prompt+d.Steps > MaxDecodeContext {
		return fmt.Errorf("workload: decode context %d exceeds %d", d.Prompt+d.Steps, MaxDecodeContext)
	}
	if n := int64(d.Steps+1) * int64(d.Layers) * int64(6+2*d.Heads); n > MaxDecodeGEMMs {
		return fmt.Errorf("workload: decode spec of %d GEMMs exceeds %d", n, MaxDecodeGEMMs)
	}
	return nil
}

// WithDefaults fills the fields a request may leave zero: Layers
// defaults to 1 and FFN to 4x Hidden.
func (d DecodeSpec) WithDefaults() DecodeSpec {
	if d.Layers == 0 {
		d.Layers = 1
	}
	if d.FFN == 0 {
		d.FFN = 4 * d.Hidden
	}
	return d
}

// ModelName is the deterministic display name; it encodes every field,
// so two requests share a name iff they share the exact spec.
func (d DecodeSpec) ModelName() string {
	return fmt.Sprintf("decode-l%dh%dx%df%d-p%ds%d", d.Layers, d.Hidden, d.Heads, d.FFN, d.Prompt, d.Steps)
}

// KVBytes is the full KV-cache footprint at end of decode: one K and
// one V vector of Hidden bytes per layer per context token.
func (d DecodeSpec) KVBytes() int64 {
	return 2 * int64(d.Layers) * int64(d.Hidden) * int64(d.Prompt+d.Steps) * ElemBytes
}

// Prefill returns the prompt pass: Prompt tokens attending over the
// Prompt-token cache they fill. Its completion emits the request's
// first token and leaves the prompt's K/V vectors resident in the
// cache.
func (d DecodeSpec) Prefill() Workload {
	layers := transformer("pre", d.Layers, d.Prompt, d.Hidden, d.Heads, d.FFN, d.Prompt, "ctx")
	return Workload{Name: d.ModelName() + "+prefill", Layers: layers}
}

// Step returns decode step tok (0-based): one new token attending over
// a context of Prompt+tok+1 cached tokens.
func (d DecodeSpec) Step(tok int) Workload {
	layers := transformer("dec", d.Layers, 1, d.Hidden, d.Heads, d.FFN, d.Prompt+tok+1, "ctx")
	return Workload{Name: fmt.Sprintf("%s+step%03d", d.ModelName(), tok), Layers: layers}
}

// Passes returns every program of the request in execution order:
// Passes()[0] is the prefill, Passes()[1+t] is decode step t. The
// scheduler compiles each pass separately; a token boundary is the
// completion of one pass.
func (d DecodeSpec) Passes() []Workload {
	out := make([]Workload, 0, d.Steps+1)
	out = append(out, d.Prefill())
	for t := 0; t < d.Steps; t++ {
		out = append(out, d.Step(t))
	}
	return out
}

// Flat concatenates prefill and every decode step into one workload
// (layer names prefixed with the pass), for running a whole decode as
// a single conventional inference — this is what the graph IR's Decode
// op lowers to.
func (d DecodeSpec) Flat() Workload {
	passes := d.Passes()
	w := Workload{Name: d.ModelName(), Layers: make([]Layer, 0, 2*d.Layers*len(passes))}
	for i, pass := range passes {
		prefix := "prefill_"
		if i > 0 {
			prefix = fmt.Sprintf("s%03d_", i-1)
		}
		for _, l := range pass.Layers {
			w.Layers = append(w.Layers, Layer{Name: prefix + l.Name, GEMMs: l.GEMMs})
		}
	}
	return w
}

// DefaultDecodeSpec is the bench/test default: small enough that a
// full prefill+steps compile stays fast, big enough that each step
// spans multiple tiles and layers.
func DefaultDecodeSpec() DecodeSpec {
	return DecodeSpec{Layers: 4, Hidden: 256, Heads: 4, FFN: 1024, Prompt: 64, Steps: 8}
}
