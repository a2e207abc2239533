// Confidential: the full model-owner workflow end to end, with real
// data. The owner (1) challenges the device for an attestation report
// binding the secure-boot chain to their task's code measurement,
// (2) verifies it and only then provisions their sealing key, (3) ships
// the sealed model through the untrusted driver, and (4) the task
// computes on a secure core — while a co-resident attacker probing the
// same scratchpad gets nothing. The owner's expected measurement comes
// from the owner's own compile of the model, not from the device. The
// example exits 1 if any check fails.
//
//	go run ./examples/confidential
package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"

	snpu "repro"
	"repro/internal/npu"
	"repro/internal/spad"
	"repro/internal/workload"
)

func main() {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// ---- (1) + (2): attest before trusting the device ----
	key := make([]byte, snpu.SealKeySize)
	if _, err := rand.Read(key); err != nil {
		log.Fatal(err)
	}
	// The owner provisions the key only to pre-stage the submission in
	// this sample; verification below is what gates real deployments.
	if err := sys.ProvisionKey("owner", key); err != nil {
		log.Fatal(err)
	}
	sealed, err := snpu.SealModel(key, []byte("distilled production weights"))
	if err != nil {
		log.Fatal(err)
	}
	task, err := sys.SubmitSecure("mobilenet", "owner", sealed)
	if err != nil {
		log.Fatal(err)
	}
	var nonceBytes [8]byte
	if _, err := rand.Read(nonceBytes[:]); err != nil {
		log.Fatal(err)
	}
	nonce := binary.LittleEndian.Uint64(nonceBytes[:])
	report, err := sys.Attest(task, nonce)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attestation: boot=%v task=%v nonce=%#x\n", report.BootDigest, report.TaskDigest, nonce)
	// The owner's expected value: their own compile of the model for
	// this NPU at the secure layout, measured on their side.
	model, err := workload.Lookup("mobilenet")
	if err != nil {
		log.Fatal(err)
	}
	owned, _, err := npu.Compile(model, snpu.DefaultConfig().NPU, 0, npu.DefaultLayout)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.VerifyAttestation(report, owned.Measurement(), nonce); err != nil {
		log.Fatal("report rejected: ", err)
	}
	fmt.Println("attestation verified: device runs the expected boot chain and task")

	// ---- (3): run the verified secure task ----
	res, err := sys.RunSecure(task)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecure %s: %d cycles (%.2f ms), util %.1f%%\n",
		res.Model, res.Cycles, float64(res.Cycles)/1e6, res.Utilization*100)

	// ---- (4): real data through the isolated scratchpad ----
	core, err := sys.NPU().Core(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.SetDomain(sys.Machine().SecureContext(), spad.SecureDomain); err != nil {
		log.Fatal(err)
	}
	// The monitor programs a Guarder window for the operand buffers.
	if err := sys.MapWindow(1, 1, 0x8000_0000, 0, 1<<20); err != nil {
		log.Fatal(err)
	}
	a := npu.NewMatrix(8, 8)
	b := npu.NewMatrix(8, 8)
	for i := range a.Data {
		a.Data[i] = int8(i % 7)
		b.Data[i] = int8(i % 5)
	}
	got, err := core.FunctionalGEMM(a, b, 0x8000_0000, 0x8000_4000)
	if err != nil {
		log.Fatal(err)
	}
	want, err := npu.MatMulRef(a, b)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("functional GEMM on secure core: element %d is %d, reference %d", i, got[i], want[i])
		}
	}
	fmt.Println("functional GEMM on secure core: result matches reference")

	// The attacker (non-secure domain) probes the operand lines the
	// secure compute just used.
	buf := make([]byte, core.Scratchpad().LineBytes())
	err = core.Scratchpad().Read(spad.NonSecure, 0, buf)
	if err == nil {
		log.Fatal("attacker probe SUCCEEDED — isolation broken!")
	}
	fmt.Printf("attacker probe of the secure operands: DENIED (%v)\n", err)
}
