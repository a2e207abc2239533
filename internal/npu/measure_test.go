package npu_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/workload"
)

// referenceHash hashes the measured bytes, written one 64-bit word at
// a time through a buffer: the name, the source digest, then per op
// its kind, VA, bytes, cycles, layer, flags (bit 0 Tile, bit 1 Weight)
// and MACs. Measurement writes in chunks and must hash exactly these
// bytes.
func referenceHash(name string, digest [sha256.Size]byte, ops []npu.Op) [sha256.Size]byte {
	h := sha256.New()
	bw := bufio.NewWriterSize(h, 1<<16)
	var buf [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		bw.Write(buf[:])
	}
	bw.WriteString(name)
	bw.Write(digest[:])
	for _, op := range ops {
		var flags uint64
		if op.Tile {
			flags |= 1
		}
		if op.Weight {
			flags |= 2
		}
		write(uint64(op.Kind))
		write(uint64(op.VA))
		write(op.Bytes)
		write(uint64(op.Cycles))
		write(uint64(op.Layer))
		write(flags)
		write(uint64(op.MACs))
	}
	bw.Flush()
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// referenceMeasurement is referenceHash over p's op stream.
func referenceMeasurement(p *npu.Program) [sha256.Size]byte {
	return referenceHash(p.Name, p.SourceDigest, npu.ExpandOps(p))
}

// referenceSpan scans every load and store of p.
func referenceSpan(p *npu.Program) (lo, hi mem.VirtAddr) {
	first := true
	for _, op := range npu.ExpandOps(p) {
		if op.Kind != npu.OpLoad && op.Kind != npu.OpStore {
			continue
		}
		end := op.VA + mem.VirtAddr(op.Bytes)
		if first || op.VA < lo {
			lo = op.VA
		}
		if first || end > hi {
			hi = end
		}
		first = false
	}
	return lo, hi
}

// forEachModel compiles every registry model at the default layout and
// at a layout 12 GiB above it, and hands each program to check.
func forEachModel(t *testing.T, check func(t *testing.T, p *npu.Program)) {
	t.Helper()
	for _, name := range workload.Names() {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []npu.Layout{npu.DefaultLayout, {WeightBase: 0x3_0010_0000}} {
			p, _, err := npu.Compile(w, npu.DefaultConfig(), 0, layout)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s@%#x", name, uint64(layout.WeightBase)), func(t *testing.T) { check(t, p) })
		}
	}
}

func TestMeasurementMatchesPerWordReference(t *testing.T) {
	forEachModel(t, func(t *testing.T, p *npu.Program) {
		want := referenceMeasurement(p)
		if got := p.Measurement(); got != want {
			t.Fatalf("Measurement %x, per-word reference %x", got, want)
		}
		if got := p.OwnerMeasurement(); got != want {
			t.Fatalf("OwnerMeasurement %x, per-word reference %x", got, want)
		}
	})
}

// Changing any one field of one op changes the measurement, so the
// code verifier refuses a program whose ops differ from the owner's in
// any field the executor reads.
func TestMeasurementBindsEveryOpField(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	orig := p.Measurement()
	// Edit single ops of the program's expansion to the literal form,
	// which measures the same as the compiled form.
	lit := npu.Literal(p)
	if lit.Measurement() != orig {
		t.Fatal("the literal form of a compiled program measures differently")
	}
	i := slices.IndexFunc(lit.Ops, func(op npu.Op) bool { return op.Kind == npu.OpCompute })
	for _, c := range []struct {
		field string
		edit  func(op *npu.Op)
	}{
		{"Kind", func(op *npu.Op) { op.Kind = npu.OpLoad }},
		{"Tile", func(op *npu.Op) { op.Tile = !op.Tile }},
		{"Weight", func(op *npu.Op) { op.Weight = !op.Weight }},
		{"VA", func(op *npu.Op) { op.VA += 64 }},
		{"Bytes", func(op *npu.Op) { op.Bytes++ }},
		{"Cycles", func(op *npu.Op) { op.Cycles++ }},
		{"Layer", func(op *npu.Op) { op.Layer++ }},
		{"MACs", func(op *npu.Op) { op.MACs *= 1000 }},
	} {
		cp := *lit
		cp.Ops = slices.Clone(lit.Ops)
		c.edit(&cp.Ops[i])
		if cp.Ops[i] == lit.Ops[i] {
			t.Fatalf("%s: the edit left op %d unchanged", c.field, i)
		}
		if cp.Measurement() == orig {
			t.Errorf("changing op %d's %s left the measurement unchanged", i, c.field)
		}
	}
}

func TestVASpanMatchesScan(t *testing.T) {
	check := func(t *testing.T, p *npu.Program) {
		t.Helper()
		lo, hi := p.VASpan()
		wlo, whi := referenceSpan(p)
		if lo != wlo || hi != whi {
			t.Fatalf("%s: VASpan [%#x,%#x), scan [%#x,%#x)", p.Name, uint64(lo), uint64(hi), uint64(wlo), uint64(whi))
		}
	}
	forEachModel(t, check)

	t.Run("stripped-slices", func(t *testing.T) {
		for _, name := range workload.Names() {
			w, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			slices, err := npu.StrippedSlices(w, npu.DefaultConfig(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range slices {
				check(t, p)
			}
		}
	})

	// A literal Compile did not build scans its ops.
	t.Run("literal", func(t *testing.T) {
		w, err := workload.Lookup("yololite")
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.Layout{WeightBase: 0x5_0010_0000})
		if err != nil {
			t.Fatal(err)
		}
		lit := &npu.Program{Name: "t", Ops: npu.ExpandOps(p), Layers: p.Layers}
		check(t, lit)
		if lo, hi := lit.VASpan(); lo == 0 || hi <= lo {
			t.Fatalf("literal program span [%#x,%#x) is empty", uint64(lo), uint64(hi))
		}
	})
}

// A by-value copy that changes its nests inherits neither the span nor
// the owner memo of the program it was copied from.
func TestCopyDropsRecordedValues(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	orig := p.OwnerMeasurement()
	cp := *p
	cp.Nests = slices.Clone(p.Nests)
	last := &cp.Nests[len(cp.Nests)-1]
	last.A += 1 << 30
	last.C += 1 << 30
	if got := cp.OwnerMeasurement(); got == orig || got != referenceMeasurement(&cp) {
		t.Fatal("copy with changed nests reused the original's owner measurement")
	}
	lo, hi := cp.VASpan()
	wlo, whi := referenceSpan(&cp)
	if _, ohi := p.VASpan(); whi == ohi {
		t.Fatal("moving the last nest did not move the span; the check below would prove nothing")
	}
	if lo != wlo || hi != whi {
		t.Fatalf("copy VASpan [%#x,%#x), scan [%#x,%#x)", uint64(lo), uint64(hi), uint64(wlo), uint64(whi))
	}
}

// Compile-cache programs are shared across experiment workers, so the
// owner memo is filled once, race-free, however many ask at once.
func TestOwnerMeasurementConcurrent(t *testing.T) {
	w, err := workload.Lookup("mobilenet")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh compile, so no earlier test has filled its memo.
	p, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceMeasurement(p)
	before := npu.MeasurementCalls()
	var wg sync.WaitGroup
	got := make([][sha256.Size]byte, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.OwnerMeasurement()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d got %x, want %x", i, g, want)
		}
	}
	if n := npu.MeasurementCalls() - before; n != 1 {
		t.Fatalf("8 concurrent OwnerMeasurement calls hashed %d times, want 1", n)
	}
}

var sinkMeasurement [sha256.Size]byte

// BenchmarkMeasurement hashes a compiled program the way the monitor's
// code verifier does on every secure admission. Bytes are the hashed
// encoding: name, source digest, one record per op.
func BenchmarkMeasurement(b *testing.B) {
	for _, name := range []string{"yololite", "bert"} {
		w, err := workload.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		p, _, err := npu.CompileCached(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
		if err != nil {
			b.Fatal(err)
		}
		ops := len(npu.ExpandOps(p))
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(p.Name) + sha256.Size + npu.OpRecordBytes*ops))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkMeasurement = p.Measurement()
			}
		})
	}
}
