// Package taskimage defines the serialized secure-task package the
// untrusted driver ships through the §IV trampoline's shared memory: the
// compiled op stream, the owner's expected measurement, the sealed
// model, and the required NoC topology, framed with a magic, version,
// and length-prefixed sections.
//
// The monitor PARSES THESE BYTES FROM THE UNTRUSTED WORLD, so decoding
// is written defensively: every length is bounds-checked against the
// remaining buffer and against hard caps, unknown versions and
// trailing garbage are rejected, and a decode never allocates more
// than a small multiple of the input size. The fuzz-style property
// tests in this package assert that no byte-level mutation of a valid
// image can crash the decoder.
package taskimage

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isolator"
	"repro/internal/npu"
)

// Format constants.
const (
	// Magic identifies a task image ("sNPUTIMG" truncated to 4 bytes).
	Magic = uint32(0x554e5073) // "sPNU" little-endian
	// Version is the only format revision this decoder accepts.
	// Version 2 added the program's 32-byte source digest (the
	// canonical-graph measurement) to the program section; version 3
	// carries each op as the record Measurement hashes (npu.AppendOp)
	// instead of a nine-word layout of its own. Older images are
	// rejected rather than translated, so a stale producer cannot
	// smuggle a program past the measurement check.
	Version = uint16(3)
	// MaxOps caps the op stream a single image may carry.
	MaxOps = 4 << 20
	// MaxModelBytes caps the sealed model payload (64 MiB).
	MaxModelBytes = 64 << 20
	// MaxNameLen caps the task name.
	MaxNameLen = 256
)

// Decode errors.
var (
	ErrBadMagic   = errors.New("taskimage: bad magic")
	ErrBadVersion = errors.New("taskimage: unsupported version")
	ErrTruncated  = errors.New("taskimage: truncated image")
	ErrOversized  = errors.New("taskimage: section exceeds cap")
	ErrTrailing   = errors.New("taskimage: trailing bytes after image")
)

// Image is the decoded task package.
type Image struct {
	Name        string
	Program     *npu.Program
	Expected    [sha256.Size]byte
	KeyID       string
	SealedModel []byte
	Topology    isolator.Topology
}

// Encode serializes an image. It is the *owner-side* producer, and it
// returns only bytes that Decode accepts: every cap and field check
// lives in Decode, which Encode runs on its own output.
func Encode(img *Image) ([]byte, error) {
	if img == nil || img.Program == nil {
		return nil, fmt.Errorf("taskimage: nil image or program")
	}
	var out []byte
	u16 := func(v uint16) { out = binary.LittleEndian.AppendUint16(out, v) }
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	u64 := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	bytesSec := func(b []byte) {
		u32(uint32(len(b)))
		out = append(out, b...)
	}

	u32(Magic)
	u16(Version)
	bytesSec([]byte(img.Name))
	bytesSec([]byte(img.Program.Name))
	bytesSec([]byte(img.KeyID))
	out = append(out, img.Expected[:]...)
	u32(uint32(img.Topology.W))
	u32(uint32(img.Topology.H))

	p := img.Program
	u32(uint32(p.Layers))
	u64(uint64(p.TotalMACs))
	u64(uint64(p.IdealComputeCycles))
	u64(uint64(p.SpadBytes))
	u64(p.LiveSpadBytes)
	u64(p.AccTileBytes)
	out = append(out, p.SourceDigest[:]...)
	u32(uint32(len(p.Ops)))
	for _, op := range p.Ops {
		out = npu.AppendOp(out, op)
	}
	bytesSec(img.SealedModel)
	if _, err := Decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// decoder walks the untrusted buffer with bounds checks.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u16() (uint16, error) {
	if d.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(cap int) ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(cap) {
		return nil, fmt.Errorf("%w: %d > %d", ErrOversized, n, cap)
	}
	if d.remaining() < int(n) {
		return nil, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out, nil
}

// Decode parses an untrusted task image. On any malformation it
// returns an error; it never panics and never over-allocates.
func Decode(buf []byte) (*Image, error) {
	d := &decoder{buf: buf}
	magic, err := d.u32()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	ver, err := d.u16()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	name, err := d.bytes(MaxNameLen)
	if err != nil {
		return nil, err
	}
	progName, err := d.bytes(MaxNameLen)
	if err != nil {
		return nil, err
	}
	keyID, err := d.bytes(MaxNameLen)
	if err != nil {
		return nil, err
	}
	img := &Image{Name: string(name), KeyID: string(keyID)}
	if d.remaining() < sha256.Size {
		return nil, ErrTruncated
	}
	copy(img.Expected[:], d.buf[d.off:])
	d.off += sha256.Size
	tw, err := d.u32()
	if err != nil {
		return nil, err
	}
	th, err := d.u32()
	if err != nil {
		return nil, err
	}
	if tw > 64 || th > 64 {
		return nil, fmt.Errorf("%w: topology %dx%d", ErrOversized, tw, th)
	}
	img.Topology = isolator.Topology{W: int(tw), H: int(th)}

	p := &npu.Program{Name: string(progName)}
	layers, err := d.u32()
	if err != nil {
		return nil, err
	}
	if layers > 1<<20 {
		return nil, fmt.Errorf("%w: %d layers", ErrOversized, layers)
	}
	p.Layers = int(layers)
	macs, err := d.u64()
	if err != nil {
		return nil, err
	}
	p.TotalMACs = int64(macs)
	ideal, err := d.u64()
	if err != nil {
		return nil, err
	}
	p.IdealComputeCycles = int64(ideal)
	spadBytes, err := d.u64()
	if err != nil {
		return nil, err
	}
	if spadBytes > 1<<32 {
		return nil, fmt.Errorf("%w: spad bytes", ErrOversized)
	}
	p.SpadBytes = int(spadBytes)
	if p.LiveSpadBytes, err = d.u64(); err != nil {
		return nil, err
	}
	if p.AccTileBytes, err = d.u64(); err != nil {
		return nil, err
	}
	if d.remaining() < sha256.Size {
		return nil, ErrTruncated
	}
	copy(p.SourceDigest[:], d.buf[d.off:])
	d.off += sha256.Size

	nOps, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nOps > MaxOps {
		return nil, fmt.Errorf("%w: %d ops", ErrOversized, nOps)
	}
	// The op section's size is known exactly; check once up front so a
	// huge claimed count cannot trigger a huge allocation.
	if int64(d.remaining()) < int64(nOps)*npu.OpRecordBytes {
		return nil, ErrTruncated
	}
	p.Ops = make([]npu.Op, nOps)
	for i := range p.Ops {
		if p.Ops[i], err = npu.ParseOp(d.buf[d.off:]); err != nil {
			return nil, fmt.Errorf("taskimage: op %d: %w", i, err)
		}
		d.off += npu.OpRecordBytes
	}
	img.Program = p
	if img.SealedModel, err = d.bytes(MaxModelBytes); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, ErrTrailing
	}
	return img, nil
}
