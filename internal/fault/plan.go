package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Plan is a fault schedule: either handwritten (explicit JSON) or
// generated from a seed and per-site rates. The zero value is the
// empty plan — installing it changes nothing.
type Plan struct {
	// Seed records the generator seed (0 for handwritten plans); it is
	// carried for reproducibility reporting only.
	Seed int64 `json:"seed,omitempty"`
	// Events is the schedule. Order does not matter; the injector
	// sorts per kind by cycle.
	Events []Event `json:"events"`
}

// jsonEvent is the wire form: kinds travel as strings so plans are
// hand-editable.
type jsonEvent struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`
	Sel  uint64 `json:"sel,omitempty"`
	Bit  uint8  `json:"bit,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{At: int64(e.At), Kind: e.Kind.String(), Sel: e.Sel, Bit: e.Bit})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(b, &je); err != nil {
		return err
	}
	k, err := KindFromString(je.Kind)
	if err != nil {
		return err
	}
	if je.At < 0 {
		return fmt.Errorf("fault: event at negative cycle %d", je.At)
	}
	*e = Event{At: sim.Cycle(je.At), Kind: k, Sel: je.Sel, Bit: je.Bit}
	return nil
}

// ReadPlan decodes a JSON plan.
func ReadPlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: decoding plan: %w", err)
	}
	return p, nil
}

// WritePlan encodes a plan as indented JSON.
func WritePlan(w io.Writer, p Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Rates gives each fault kind an expected event count per million
// simulated cycles.
type Rates struct {
	DRAMBitFlip  float64
	NoCCorrupt   float64
	NoCDrop      float64
	NoCLinkDown  float64
	DMAStall     float64
	IOTLBCorrupt float64
	SpadBitFlip  float64
	CoreHang     float64
}

// UniformRates gives every kind except permanent link failure and
// core hang the same rate; the two catastrophic kinds get 1/10th of
// it (rare but present, as in field failure data).
func UniformRates(perMillion float64) Rates {
	return Rates{
		DRAMBitFlip:  perMillion,
		NoCCorrupt:   perMillion,
		NoCDrop:      perMillion,
		DMAStall:     perMillion,
		IOTLBCorrupt: perMillion,
		SpadBitFlip:  perMillion,
		NoCLinkDown:  perMillion / 10,
		CoreHang:     perMillion / 10,
	}
}

// TransientRates is UniformRates without permanent link failure: the
// resilience sweep's retry policy measures recovery from transient
// faults (hangs included — a wedged core clears on abort), and a
// downed NoC link would otherwise fail every subsequent attempt no
// matter the budget.
func TransientRates(perMillion float64) Rates {
	r := UniformRates(perMillion)
	r.NoCLinkDown = 0
	return r
}

func (r Rates) rate(k Kind) float64 {
	switch k {
	case DRAMBitFlip:
		return r.DRAMBitFlip
	case NoCCorrupt:
		return r.NoCCorrupt
	case NoCDrop:
		return r.NoCDrop
	case NoCLinkDown:
		return r.NoCLinkDown
	case DMAStall:
		return r.DMAStall
	case IOTLBCorrupt:
		return r.IOTLBCorrupt
	case SpadBitFlip:
		return r.SpadBitFlip
	case CoreHang:
		return r.CoreHang
	default:
		return 0
	}
}

// Generate builds a random plan over [0, horizon) from an explicit
// seed. The same (seed, horizon, rates) triple always yields the same
// plan; nothing reads the wall clock or global math/rand state.
func Generate(seed int64, horizon sim.Cycle, rates Rates) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	if horizon <= 0 {
		return p
	}
	for _, k := range Kinds() {
		rate := rates.rate(k)
		if rate <= 0 {
			continue
		}
		n := int(rate * float64(horizon) / 1e6)
		// Keep a fractional expectation alive at low rates so sweeps
		// do not silently round every bucket to zero.
		if frac := rate*float64(horizon)/1e6 - float64(n); rng.Float64() < frac {
			n++
		}
		for i := 0; i < n; i++ {
			p.Events = append(p.Events, Event{
				At:   sim.Cycle(rng.Int63n(int64(horizon))),
				Kind: k,
				Sel:  rng.Uint64(),
				Bit:  uint8(rng.Intn(64)),
			})
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool {
		if p.Events[i].At != p.Events[j].At {
			return p.Events[i].At < p.Events[j].At
		}
		return p.Events[i].Kind < p.Events[j].Kind
	})
	return p
}
