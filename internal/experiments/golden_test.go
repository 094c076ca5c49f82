package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pftk/internal/obs"
)

// TestRunAllTimedGolden pins a whole regeneration: the sha256 of the
// rendered reports and of the metrics JSONL (minus wall_seconds) for
// RunAllTimed at a quick Options on two salts. Any change to what a
// report or a metrics record says moves a digest; a refactor of how the
// artifacts are computed must not.
//
// The digests were recorded on linux/amd64. Float formatting is exact,
// but another architecture may fuse multiply-adds differently and move
// the last printed digit.
func TestRunAllTimedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	for _, c := range []struct {
		salt             uint64
		reports, metrics string
	}{
		{3,
			"066fea46cbf3a966e2232de3138b1314e875d5f471b5f8c5bc2da03434f18900",
			"a794aa477fe1423cd568e7c47d36184e0a873cc6cd0814de9598c057fabc28e0"},
		{11,
			"d387b6aaae28db95d82fe06f1254f4d2d6dd56b172616c0d36796a3cf702d92b",
			"7c087beb5b198b54b77040bcad1c3c9c45ee4d49df55afab35fe7ece7d3263ff"},
	} {
		var jsonl bytes.Buffer
		mw := obs.NewJSONLWriter(&jsonl)
		o := Options{HourTraceDuration: 300, ShortTraces: 5, ShortTraceDuration: 20, IntervalWidth: 50, Salt: c.salt, Workers: 2, Metrics: mw}
		reports := RunAllTimed(o, nil)
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
		digest := func(s string) string {
			sum := sha256.Sum256([]byte(s))
			return hex.EncodeToString(sum[:])
		}
		if got := digest(renderReports(t, reports)); got != c.reports {
			t.Errorf("salt %d: reports digest %s, want %s", c.salt, got, c.reports)
		}
		if got := digest(stripJSONLWallClock(t, jsonl.Bytes())); got != c.metrics {
			t.Errorf("salt %d: metrics digest %s, want %s", c.salt, got, c.metrics)
		}
	}
}
