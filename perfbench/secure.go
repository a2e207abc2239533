package main

import (
	"fmt"
	"math/rand"

	snpu "repro"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/workload"
)

// secureMix is how many requests of each §VI model one block of
// secureBlock requests holds. Host time per secure request rises
// yololite ≈ mobilenet < alexnet < googlenet < resnet < bert (about 9 to
// 195 ms), so these counts put p50 in the middle of the alexnet cluster
// (30-70 % of a block) and p90 in the middle of the resnet cluster
// (82-98 %), never on a boundary between two models, even with a
// partial block at the end of a phase.
var secureMix = []struct {
	model string
	n     int
}{
	{"yololite", 7}, {"mobilenet", 8}, {"alexnet", 20}, {"googlenet", 6}, {"resnet", 8}, {"bert", 1},
}

const (
	secureBlock = 50
	// securePayload is the size of each model's sealed weight blob.
	securePayload = 16 << 10
	secureKeyID   = "owner"
)

// secureModel is the model of request i: blocks of secureBlock requests
// with the secureMix counts, each block shuffled by its own seeded RNG.
func secureModel(seed int64, i int) string {
	block := make([]string, 0, secureBlock)
	for _, m := range secureMix {
		for k := 0; k < m.n; k++ {
			block = append(block, m.model)
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i/secureBlock)))
	rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	return block[i%secureBlock]
}

// secureNonce is the attestation challenge of request i.
func secureNonce(seed int64, i int) uint64 {
	return rand.New(rand.NewSource(seed ^ int64(i)<<20)).Uint64()
}

// secureInfer is the examples/confidential flow on one booted protected
// System: SubmitSecure → Attest → VerifyAttestation → RunSecure. Untraced,
// it goes through the root System API; traced, it issues the same
// requests as their public layer calls so each layer gets a span.
type secureInfer struct {
	seed   int64
	sys    *snpu.System
	cfg    npu.Config
	wl     map[string]workload.Workload
	sealed map[string][]byte
	expect map[string][32]byte // the owner's expected measurement
	ref    map[string]sim.Cycle
}

func newSecureInfer(seed int64) *secureInfer { return &secureInfer{seed: seed} }

func (s *secureInfer) prefix() int         { return 2 * secureBlock }
func (s *secureInfer) roundEnd(n int) bool { return n%secureBlock == 0 }

// setup boots the System, provisions the owner's key, seals one blob per
// model, takes each model's non-secure RunModel cycles as the reference
// (the Guarder adds no cycles, Fig. 13) and the owner's expected
// measurement, then warms every model with one secure request.
func (s *secureInfer) setup() error {
	cfg := snpu.DefaultConfig()
	sys, err := snpu.New(cfg)
	if err != nil {
		return err
	}
	s.sys, s.cfg = sys, cfg.NPU
	rng := rand.New(rand.NewSource(s.seed))
	key := make([]byte, snpu.SealKeySize)
	rng.Read(key)
	if err := sys.ProvisionKey(secureKeyID, key); err != nil {
		return err
	}
	s.wl = map[string]workload.Workload{}
	s.sealed = map[string][]byte{}
	s.expect = map[string][32]byte{}
	s.ref = map[string]sim.Cycle{}
	for _, m := range secureMix {
		w, err := workload.Lookup(m.model)
		if err != nil {
			return err
		}
		s.wl[m.model] = w
		weights := make([]byte, securePayload)
		rng.Read(weights)
		if s.sealed[m.model], err = snpu.SealModel(key, weights); err != nil {
			return err
		}
		res, err := sys.RunModel(m.model)
		if err != nil {
			return err
		}
		s.ref[m.model] = res.Cycles
		prog, _, err := npu.CompileCached(w, s.cfg, 0, npu.DefaultLayout)
		if err != nil {
			return err
		}
		s.expect[m.model] = prog.Measurement()
		if _, err := s.request(m.model, 1, nil); err != nil {
			return fmt.Errorf("warm %s: %w", m.model, err)
		}
	}
	return nil
}

func (s *secureInfer) do(i int, tr *tracer) (outcome, error) {
	m := secureModel(s.seed, i)
	sp := tr.start("snpu.request")
	cycles, err := s.request(m, secureNonce(s.seed, i), tr)
	tr.stop(sp)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		units: 1, simLatency: []float64{float64(cycles)}, simTime: float64(cycles), simUnits: 1,
		output:   []byte(fmt.Sprintf("%s %d\n", m, cycles)),
		traffic:  map[string]int{"secure": 1, "model:" + m: 1},
		requests: 1,
	}
	if cycles != s.ref[m] {
		out.violations = append(out.violations, fmt.Sprintf("%s: secure run took %d cycles, non-secure RunModel %d", m, cycles, s.ref[m]))
	}
	return out, nil
}

// request runs one secure inference and returns its simulated cycles.
// A failed attestation check is an error: the owner would not run.
func (s *secureInfer) request(m string, nonce uint64, tr *tracer) (sim.Cycle, error) {
	if tr != nil {
		return s.tracedRequest(m, nonce, tr)
	}
	h, err := s.sys.SubmitSecure(m, secureKeyID, s.sealed[m])
	if err != nil {
		return 0, err
	}
	rep, err := s.sys.Attest(h, nonce)
	if err != nil {
		return 0, err
	}
	verr := s.sys.VerifyAttestation(rep, s.expect[m], nonce)
	res, err := s.sys.RunSecure(h)
	if verr != nil {
		return 0, fmt.Errorf("attestation rejected: %w", verr)
	}
	return res.Cycles, err
}

// tracedRequest is request issued as the layer calls that
// SubmitSecureWorkload, Attest, VerifyAttestation and RunSecure make.
func (s *secureInfer) tracedRequest(m string, nonce uint64, tr *tracer) (sim.Cycle, error) {
	w := s.wl[m]
	if err := w.Validate(); err != nil {
		return 0, err
	}
	sp := tr.start("npu.compile")
	prog, _, err := npu.CompileCached(w, s.cfg, 0, npu.DefaultLayout)
	tr.stop(sp)
	if err != nil {
		return 0, err
	}
	mon := s.sys.Monitor()
	sp = tr.start("npu.measurement")
	expected := prog.Measurement()
	tr.stop(sp)
	sp = tr.start("monitor.submit")
	rep := mon.Dispatch(monitor.Call{Func: monitor.FnSubmit, Shared: s.sealed[m], Program: prog, Expected: expected, KeyID: secureKeyID})
	tr.stop(sp)
	if rep.Err != nil {
		return 0, rep.Err
	}
	id := int(rep.Value)

	machine := s.sys.Machine()
	sp = tr.start("npu.measurement")
	digest := prog.Measurement()
	tr.stop(sp)
	sp = tr.start("tee.attest")
	report, err := machine.Attest(machine.SecureContext(), tee.Measurement(digest), nonce)
	tr.stop(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("tee.verify")
	verr := machine.VerifyReport(report, machine.BootChain().Attestation(), tee.Measurement(s.expect[m]), nonce)
	tr.stop(sp)

	const core = 0
	acc := s.sys.NPU()
	acc.ResetTiming()
	sp = tr.start("monitor.load")
	rep = mon.Dispatch(monitor.Call{Func: monitor.FnLoad, Args: []uint64{uint64(id), 0, uint64(s.cfg.SpadLines()), core}})
	tr.stop(sp)
	if rep.Err != nil {
		return 0, rep.Err
	}
	c, err := acc.Core(core)
	if err != nil {
		return 0, err
	}
	sp = tr.start("npu.exec")
	cycles, err := npu.NewExec(c, prog, id+10000).Run(0)
	tr.stop(sp)
	tr.count("npu.exec_ops", float64(len(prog.Ops)))
	if err != nil {
		return 0, err
	}
	sp = tr.start("monitor.unload")
	rep = mon.Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(id)}})
	tr.stop(sp)
	if rep.Err != nil {
		return 0, rep.Err
	}
	if verr != nil {
		return 0, fmt.Errorf("attestation rejected: %w", verr)
	}
	return cycles, nil
}

func (s *secureInfer) counters() map[string]float64 {
	return withCompileCache(layerCounters(s.sys.Stats().Get))
}

// layerCounters reads the per-layer hardware and monitor counters
// through get.
func layerCounters(get func(name string) int64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{sim.CtrDMARequests, sim.CtrTranslations, sim.CtrGuarderChecks, sim.CtrMonitorCalls, sim.CtrMonitorRejected} {
		out[k] = float64(get(k))
	}
	return out
}

// withCompileCache adds the process-wide compile-cache counters.
func withCompileCache(m map[string]float64) map[string]float64 {
	hits, misses := npu.ProgCacheCounters()
	m["npu.compile_hits"], m["npu.compile_misses"] = float64(hits), float64(misses)
	return m
}
