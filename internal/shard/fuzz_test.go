package shard

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/plan"
)

// seedReplies are well-formed fragment replies, one per result shape.
func seedReplies() []*ExecReply {
	results := []*plan.FragmentResult{
		{Count: 12345},
		{Sel: []uint64{0, 5, 1 << 40}, Count: 3},
		{MinMax: []plan.VarRange{{Var: "px", Lo: -2, Hi: 3, N: 10}, {Var: "y", Lo: math.NaN(), Hi: math.Inf(1)}}},
		{Hist1: &histogram.Hist1D{Var: "x", Edges: []float64{0, 1, 2}, Counts: []uint64{3, 4}}},
		{Hist2: &histogram.Hist2D{XVar: "x", YVar: "px", XEdges: []float64{0, 1}, YEdges: []float64{0, 1}, Counts: []uint64{9}}},
	}
	out := make([]*ExecReply, len(results))
	for i, r := range results {
		out[i] = &ExecReply{Result: r, Cached: i%2 == 0, CRC: resultSum(r), CRCOK: true}
	}
	return out
}

func encodeReply(t testing.TB, r *ExecReply) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzExecReplyDecode feeds arbitrary bytes to the gob decoding of a
// fragment reply, the frontend's view of untrusted transport bytes.
// Decoding must never panic, and any reply that decodes must survive an
// encode→decode round trip with its result checksum unchanged, so a
// verified reply stays verifiable wherever it is re-sent.
func FuzzExecReplyDecode(f *testing.F) {
	for _, r := range seedReplies() {
		b := encodeReply(f, r)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reply ExecReply
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&reply); err != nil || reply.Result == nil {
			return
		}
		sum := resultSum(reply.Result)
		var again ExecReply
		if err := gob.NewDecoder(bytes.NewReader(encodeReply(t, &reply))).Decode(&again); err != nil {
			t.Fatalf("re-decoding a decoded reply: %v", err)
		}
		if again.Result == nil {
			t.Fatal("round trip lost the result")
		}
		if got := resultSum(again.Result); got != sum {
			t.Fatalf("round trip changed the result checksum: %08x -> %08x", sum, got)
		}
		if again.CRC != reply.CRC || again.CRCOK != reply.CRCOK {
			t.Fatalf("round trip changed the carried checksum: %08x/%v -> %08x/%v",
				reply.CRC, reply.CRCOK, again.CRC, again.CRCOK)
		}
	})
}

// A valid reply decodes with a checksum that verifies.
func TestExecReplyRoundTripVerifies(t *testing.T) {
	for _, r := range seedReplies() {
		var got ExecReply
		if err := gob.NewDecoder(bytes.NewReader(encodeReply(t, r))).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !got.CRCOK || resultSum(got.Result) != got.CRC {
			t.Fatalf("decoded reply %+v failed its checksum", got.Result)
		}
	}
}

// legacyReply is the reply shape of workers that checksummed the JSON
// encoding of the result under the field names Sum/SumOK.
type legacyReply struct {
	Result *plan.FragmentResult
	Sum    uint32
	SumOK  bool
}

// Gob matches fields by name, so a legacy reply decodes as carrying no
// checksum: it is merged unverified during a rolling upgrade instead of
// being rejected as corrupt for summing a different layout.
func TestLegacyReplyDecodesUnsummed(t *testing.T) {
	var buf bytes.Buffer
	res := &plan.FragmentResult{Count: 3}
	if err := gob.NewEncoder(&buf).Encode(&legacyReply{Result: res, Sum: resultSum(res) ^ 1, SumOK: true}); err != nil {
		t.Fatal(err)
	}
	var got ExecReply
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.CRCOK || got.CRC != 0 || got.Result == nil || got.Result.Count != 3 {
		t.Fatalf("legacy reply decoded as %+v (result %+v)", got, got.Result)
	}
}
