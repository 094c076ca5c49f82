package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"

	"pftk/internal/serve"
)

// runPoints is more predict-unique points per client than a minute-long
// run sends at the throughput this benchmark sees.
const runPoints = 600_000

func TestSameSeedSameBodies(t *testing.T) {
	for c := 0; c < nClients; c++ {
		a, b := &uniqueStream{g: newUniqueGen(42, c)}, &uniqueStream{g: newUniqueGen(42, c)}
		other := &uniqueStream{g: newUniqueGen(43, c)}
		differs := false
		for i := 0; i < 1000; i++ {
			ra, _ := a.next()
			body := append([]byte(nil), ra.body...)
			rb, _ := b.next()
			if !bytes.Equal(body, rb.body) {
				t.Fatalf("client %d request %d: same seed gave %s and %s", c, i, body, rb.body)
			}
			ro, _ := other.next()
			differs = differs || !bytes.Equal(body, ro.body)
		}
		if !differs {
			t.Errorf("client %d: seeds 42 and 43 gave the same predict-unique bodies", c)
		}
	}

	ka, kb := newKeyspace(42), newKeyspace(42)
	for k := range ka.singleBody {
		if !bytes.Equal(ka.singleBody[k], kb.singleBody[k]) {
			t.Fatalf("key %d: same seed gave different bodies", k)
		}
	}
	for c := 0; c < nClients; c++ {
		ga, gb := newZipfGen(ka, 42, c), newZipfGen(kb, 42, c)
		for i := 0; i < 10_000; i++ {
			qa, qb := ga.next(), gb.next()
			if qa != qb || !bytes.Equal(ka.body(qa), kb.body(qb)) {
				t.Fatalf("client %d request %d: same seed gave %+v and %+v", c, i, qa, qb)
			}
		}
	}
}

func TestUniqueNeverRepeatsKey(t *testing.T) {
	// p is part of the normalized key, so distinct p across every point
	// the clients of one run send means no key repeats.
	var ps []uint64
	for c := 0; c < nClients; c++ {
		g := newUniqueGen(7, c)
		for i := 0; i < runPoints; i++ {
			pt, ok := g.next()
			if !ok {
				t.Fatalf("client %d exhausted after %d points", c, i)
			}
			if !(pt.P >= pLoUnique && pt.P < pHiUnique) || pt.Markov {
				t.Fatalf("point %+v outside predict-unique's domain", pt)
			}
			ps = append(ps, math.Float64bits(pt.P))
		}
	}
	slices.Sort(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i] == ps[i-1] {
			t.Fatalf("p = %v repeats within one run", math.Float64frombits(ps[i]))
		}
	}
}

func TestUniqueSlotIsPermutation(t *testing.T) {
	g := newUniqueGen(7, 0)
	seen := make([]bool, uniqueSlots)
	for n := uint32(0); n < uniqueSlots; n++ {
		s := g.slot(n)
		if seen[s] {
			t.Fatalf("slot %d hit twice", s)
		}
		seen[s] = true
	}
}

func TestZipfKeyspaceExceedsCache(t *testing.T) {
	ks := newKeyspace(7)
	if len(ks.points) <= cacheEntries {
		t.Fatalf("keyspace of %d keys fits the %d-entry cache", len(ks.points), cacheEntries)
	}
	type key struct{ p, rtt, t0, wm uint64 }
	distinct := map[key]bool{}
	markov := 0
	for _, pt := range ks.points {
		distinct[key{math.Float64bits(pt.P), math.Float64bits(pt.RTT), math.Float64bits(pt.T0), math.Float64bits(pt.Wm)}] = true
		if pt.Markov {
			markov++
		}
	}
	if len(distinct) != len(ks.points) {
		t.Errorf("%d distinct operating points among %d keys", len(distinct), len(ks.points))
	}
	if markov*markovEvery != len(ks.points) {
		t.Errorf("%d Markov keys among %d, want 1 in %d", markov, len(ks.points), markovEvery)
	}
	// One client's traffic over a short run already touches more keys
	// than the cache holds.
	g := newZipfGen(ks, 7, 0)
	touched := map[int32]bool{}
	for i := 0; i < 100_000; i++ {
		q := g.next()
		if q.curve {
			for j := int32(0); j < curvePoints; j++ {
				touched[q.idx*curvePoints+j] = true
			}
		} else {
			touched[q.idx] = true
		}
	}
	if len(touched) <= cacheEntries {
		t.Errorf("100000 requests touched %d keys, no more than the %d-entry cache", len(touched), cacheEntries)
	}
}

func TestCheckBodyCatchesMismatch(t *testing.T) {
	ks := newKeyspace(3)
	path := 0
	for !ks.points[path*curvePoints].Markov {
		path++
	}
	pts := ks.points[path*curvePoints : (path+1)*curvePoints]
	var want []rates
	var br serve.BatchResponse
	for _, pt := range pts {
		w, _, err := expect(pt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
		br.Results = append(br.Results, serve.PredictResponse{
			Request: serve.PredictRequest{P: pt.P, RTT: pt.RTT, T0: pt.T0, Wm: pt.Wm, B: 2, Models: pt.models()},
			Rates:   w,
		})
	}
	body, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBody(body, true, pts, want); err != nil {
		t.Fatalf("correct curve rejected: %v", err)
	}

	br.Results[0], br.Results[1] = br.Results[1], br.Results[0]
	if body, _ = json.Marshal(br); checkBody(body, true, pts, want) == nil {
		t.Error("curve results out of request order accepted")
	}
	br.Results[0], br.Results[1] = br.Results[1], br.Results[0]

	off := want[3]["markov"]
	br.Results[3].Rates = rates{}
	for m, v := range want[3] {
		br.Results[3].Rates[m] = v
	}
	br.Results[3].Rates["markov"] = math.Nextafter(off, math.Inf(1))
	if body, _ = json.Marshal(br); checkBody(body, true, pts, want) == nil {
		t.Error("a rate one ulp off accepted")
	}
}

// TestBenchmarkJSONMatches pins the repository's BENCHMARK.json to what
// this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var runners []string
	for name := range workloads {
		runners = append(runners, name)
	}
	sort.Strings(names)
	sort.Strings(runners)
	if !slices.Equal(names, runners) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, runners)
	}
	e2e := map[string]string{
		"setup_s": "s", "req_per_s": "1/s", "lat_p50_us": "us", "lat_p99_us": "us",
		"cpu_us_per_req": "us", "peak_rss_mb": "MB",
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not one the program prints", m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerCatalog[i].name || m.Unit != layerCatalog[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, layerCatalog[i].name, layerCatalog[i].unit)
		}
	}
}
