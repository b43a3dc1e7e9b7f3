package core

import (
	"bytes"
	"testing"

	"bytebrain/internal/datagen"
	"bytebrain/internal/vars"
)

// regexReplacer builds the built-in rule set out of regular expressions
// through Replacer.Add — the path the rules ran on before vars' byte
// scanners. The patterns are a copy of the oracle in vars' own tests.
func regexReplacer() *vars.Replacer {
	return vars.None().
		Add("iso-timestamp", `\b\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?\b`).
		Add("slash-date-time", `\b\d{2,4}[/.]\d{2}[/.]\d{2,4}[ T]\d{2}:\d{2}:\d{2}\b`).
		Add("clock-time", `\b\d{2}:\d{2}:\d{2}(?:[.,]\d+)?\b`).
		Add("uuid", `\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b`).
		Add("ipv6", `\b(?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b`).
		Add("ipv4-port", `\b(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b`).
		Add("long-hex", `\b(?:0x[0-9a-fA-F]+|[0-9a-fA-F]{32,64})\b`).
		Add("mac-address", `\b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b`)
}

// TestScannerAndRegexTrainTheSameModel pins the claim the scanners rest on
// at the level that matters downstream: masking is identical, so models —
// node IDs, templates, saturations — are identical to the byte.
func TestScannerAndRegexTrainTheSameModel(t *testing.T) {
	for _, name := range []string{"HDFS", "BGL", "Thunderbird"} {
		ds, err := datagen.LogHub2(name, 0.0005, 1)
		if err != nil {
			t.Fatal(err)
		}
		var models [2][]byte
		for i, r := range []*vars.Replacer{vars.Default(), regexReplacer()} {
			res, err := New(Options{Seed: 1, Replacer: r}).Train(ds.Lines)
			if err != nil {
				t.Fatal(err)
			}
			if models[i], err = res.Model.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(models[0], models[1]) {
			t.Errorf("%s (%d lines): model trained through the scanners differs from the one trained through the regexes", name, len(ds.Lines))
		}
	}
}
