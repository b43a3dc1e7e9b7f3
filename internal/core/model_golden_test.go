package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bytebrain/internal/datagen"
)

// goldenModelSHA256 is the SHA-256 of MarshalBinary for a model trained
// with Seed 1 on datagen.LogHub2(name, 0.0005, 1). The hashes were
// recorded with the map-based clusterer that rebuilt its statistics after
// every pass; the incremental clusterer must reproduce those models to the
// byte — node IDs, templates, saturations, counts — at any Parallelism.
var goldenModelSHA256 = map[string]string{
	"HDFS":        "69e4bc60510d8dad9c2a171202349447e04d87a923d5c521fd6106e6811b405a",
	"BGL":         "6e984a15e3e8390c56ebb7343ff8357dc4e5cb6a0fe59ac47b36273d840d98db",
	"Thunderbird": "94cc6d2c40b3be5cff96878084c82bbaf9e162ecb4e50a70e5d4cfade441f2c3",
}

func TestTrainMatchesGoldenModels(t *testing.T) {
	for _, name := range []string{"HDFS", "BGL", "Thunderbird"} {
		ds, err := datagen.LogHub2(name, 0.0005, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			res, err := New(Options{Seed: 1, Parallelism: par}).Train(ds.Lines)
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Model.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != goldenModelSHA256[name] {
				t.Errorf("%s (%d lines, Parallelism %d): model SHA-256 %s, want %s",
					name, len(ds.Lines), par, got, goldenModelSHA256[name])
			}
		}
	}
}
