package workload

import (
	"encoding/hex"
	"testing"
)

// pinnedCase is one workload whose Digest is pinned below.
type pinnedCase struct {
	key string
	w   Workload
}

// pinnedWorkloads lists every workload the digest pins cover: each
// registry model, and every pass plus the Flat form of the decode
// sweep's two tenant specs and of DefaultDecodeSpec.
func pinnedWorkloads(t *testing.T) []pinnedCase {
	var out []pinnedCase
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pinnedCase{name, w})
	}
	specs := []DecodeSpec{
		{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 8, Steps: 3},
		{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 12, Steps: 4},
		DefaultDecodeSpec(),
	}
	for _, d := range specs {
		for _, p := range d.Passes() {
			out = append(out, pinnedCase{p.Name, p})
		}
		out = append(out, pinnedCase{d.ModelName() + " flat", d.Flat()})
	}
	return out
}

// TestWorkloadDigestsPinned pins the hex Digest of every model and
// decode pass. The attestation quote binds this value, so a change to
// any constructor's GEMM names, shapes, layer split or efficiency shows
// here, independent of the graph IR lowering.
func TestWorkloadDigestsPinned(t *testing.T) {
	want := map[string]string{
		"googlenet":                          "80b58f48ac84894a2da33ac9568d4aea85b6dccded76d47aff7575998fa36701",
		"alexnet":                            "5d7c682c8c5bc07c380691e7e1ed3a6c7bccea381fb918c3ddd0b7855cde8dca",
		"yololite":                           "e830c95cbd3ac0b21b164c415a0cc0e44053bc9251eb43af639348118be99471",
		"mobilenet":                          "8bb29497e873b0d335c8426f6037ba0ad81a5b0ec2442a7c676ca8442a7f7f03",
		"resnet":                             "e61424dc62b9100d153ecece01779df16e9750d32134e813d59d3aa8af01d3bd",
		"bert":                               "9e60f6df5fed6152f36add15337124fe332fbfb020d83d770969be621f25f78e",
		"vgg16":                              "614d2cf82656b7f57121eb9b7dcf3453568222d4e0a143e0a71c8e7dcfd46849",
		"gpt-decode":                         "a54526066d8a239663888e32e4c234e032d77909f941db43c1df4fe779501b93",
		"dlrm":                               "ed7095587e765ed2a0f0b0e769ad0f90ebce9381d5d0ad0447eac1e2447a6621",
		"decode-l1h64x4f128-p8s3+prefill":    "ff8e549c9e7ccc69126ed3eb5983d8b4448b3b475aba9efcb97fb66822b2ef48",
		"decode-l1h64x4f128-p8s3+step000":    "e2115a57d5c21a141486ad1917a17e6fc4bff77affa7ee5165ecec6613d408d7",
		"decode-l1h64x4f128-p8s3+step001":    "b13147067657d04ee7264bbc4ab3007008aadddd42a843b871aac88d51418c32",
		"decode-l1h64x4f128-p8s3+step002":    "5e2d86737fcc3bab3b637353aebf12e3f043f60e3dd8629ec5837c5d8c8bc745",
		"decode-l1h64x4f128-p8s3 flat":       "64b959817148eb460f77f39b62cce9d19287bf39f0fd3c6e6476eabed46aef38",
		"decode-l1h64x4f128-p12s4+prefill":   "f4ea8744cdf3cff9ae1f0e1f5a0e650591d1f2ebf16af820732568afbfbe95b5",
		"decode-l1h64x4f128-p12s4+step000":   "0580ada4de8775baa8c7bfeb8bdb3ce872ada027fc2ae58a984f5bbfa7a9cded",
		"decode-l1h64x4f128-p12s4+step001":   "8842a1ab7f138c212c17e173e8374748bb51c2f69baee45ea82cde6219306c98",
		"decode-l1h64x4f128-p12s4+step002":   "b6ac45376daec93772028f992a3b18dc30b72abc71b7ff890edc7bbce49eaede",
		"decode-l1h64x4f128-p12s4+step003":   "c889d4f6a87614e81c3c7b692f66da6441440e59009b253625be72f778af049f",
		"decode-l1h64x4f128-p12s4 flat":      "0484974cb9a1cd48d169cf07b46c50b72e16d6e8d0bef1cf083eb4d9a24e350a",
		"decode-l4h256x4f1024-p64s8+prefill": "349e22bb952e7a07b24d7a579f6f88c5b62baa31f66f15d73144e392462b0548",
		"decode-l4h256x4f1024-p64s8+step000": "b924e39cbdd000f7b939cc8a425993db45a527fc967f43146ea37a6891a11f3d",
		"decode-l4h256x4f1024-p64s8+step001": "a29ddf5fc0e918eac0ca5a88eee4a0ec4661e442d0e997f083255467fbd76570",
		"decode-l4h256x4f1024-p64s8+step002": "223d0d2d01be604d88e7faec5be36372f586f72db08291a51d377a7bb8c5b135",
		"decode-l4h256x4f1024-p64s8+step003": "7797ada1d0c2d6732662c0a9aa055f97ec87464720fff8cb43bc9d8bbec10253",
		"decode-l4h256x4f1024-p64s8+step004": "638a9a4189b98fadd8a4dbc985aa4aa5ca142420b5f25bdb3ca14076e448658b",
		"decode-l4h256x4f1024-p64s8+step005": "b68f27846a4e384b5aa24f68d40b540eb21ef2e2d3796a94d692428ede2ea616",
		"decode-l4h256x4f1024-p64s8+step006": "9b50fd6630aad8e0a951555a3d145a2975d9ce0b08822238a8d986ea9aca3743",
		"decode-l4h256x4f1024-p64s8+step007": "046fa2b0d1e144d43d5ee99914f15f8b2da0aa106b0792dbf69ba74c08f78442",
		"decode-l4h256x4f1024-p64s8 flat":    "f00c6aac6b09fc06ddda07ec94750432cff05e50b2f02f49d16cd0512dd7de2b",
	}
	cases := pinnedWorkloads(t)
	if len(cases) != len(want) {
		t.Fatalf("%d pinned workloads, %d pins", len(cases), len(want))
	}
	for _, c := range cases {
		d := Digest(c.w)
		if got := hex.EncodeToString(d[:]); got != want[c.key] {
			t.Errorf("%s: digest %s, pinned %s", c.key, got, want[c.key])
		}
	}
}
