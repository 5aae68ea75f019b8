package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// The content key (see hash_golden_test.go) pins a run's inputs, not the
// code that turns them into results. A simulator, protocol or clustering
// change that moves any result bit would leave every archived
// runs/<key>.json silently stale: resume would serve the old bytes under
// the same key. This golden test pins the outputs instead. Each of the
// six builtins plus one drifting scenario runs at small scale, and a
// digest covers every broadcast's fragment matrix and completion-time
// bits, the aggregated graph, every per-iteration partition, Q and NMI,
// the final partition, Q, NMI and TotalMeasurementTime.
//
// A digest change means archived results no longer match what the code
// computes. If the change is deliberate, bump keyVersion in hash.go (so
// old archives are invalidated instead of reused), update the cache-key
// goldens, and only then regenerate these digests. Performance work must
// never move them.
func TestResultDigestsArePinned(t *testing.T) {
	golden := map[string]string{
		"2x2":   "699ea505fa1c060307c00bdcc8940dfb74250636a71c1577f12e8ed23e763cb4",
		"B":     "a7692722024b385157bfeacd5d8ebd581429c4f6340823f57d5c8489273491d0",
		"BT":    "5321acefe44da89b181d68bcaa36c2019d7649bc00c3300d06262d7d542b6a81",
		"GT":    "61af4483fe1a8c9a14b1155b729a5032a88eac895bd9ba3128dfd3ed6b8c2747",
		"BGT":   "2006b2c13fdab7f4e936279d000e4575bd25794472dfd16535006eded5b13fcb",
		"BGTL":  "f0ec9110c14457dfcd5f1878f8b9d8d2dc0b3f43ec4ada06a380bd3ea86fa925",
		"drift": "aa59dcedd481f9f2b7dff2c0d920ffff7c580b7a11e126f5b1cd777a3fd4016d",
	}
	specs := scenario.BuiltinSpecs()
	drift := scenario.DriftSites(4, 16, 890, 100, 0.5)
	drift.Name = "drift"
	specs = append(specs, drift)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			have := resultDigest(t, spec)
			if want := golden[spec.Name]; have != want {
				t.Errorf("result digest of %s drifted:\n  have %s\n  want %s\n"+
					"archived results no longer match the code: a deliberate behaviour change must bump keyVersion in hash.go "+
					"(see the comment above); a performance change must not move this digest",
					spec.Name, have, want)
			}
		})
	}
}

// resultDigest runs spec at golden scale and hashes every result bit.
func resultDigest(t *testing.T, spec *scenario.Spec) string {
	t.Helper()
	d, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Iterations = 4
	opts.BT.FileBytes = scaledPayload(opts.BT.FileBytes, opts.BT.FragmentSize, 0.05)
	opts.Workers = 1
	res, err := core.RunDataset(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, rec := range res.Iterations {
		b := rec.Broadcast
		putInts(h, b.N)
		for _, row := range b.Fragments {
			putInts(h, row...)
		}
		putFloats(h, b.CompletionTimes...)
		putFloats(h, b.Duration)
		putInts(h, int(b.Flows))
		putInts(h, rec.ActiveHosts...)
		putInts(h, rec.Partition.Labels...)
		putFloats(h, rec.Q, rec.NMI)
	}
	for _, e := range res.Graph.Edges() {
		putInts(h, e.U, e.V)
		putFloats(h, e.Weight)
	}
	putInts(h, res.Partition.Labels...)
	putFloats(h, res.Q, res.NMI, res.TotalMeasurementTime)
	return hex.EncodeToString(h.Sum(nil))
}

func putInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func putFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
