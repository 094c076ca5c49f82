package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pftk/internal/core"
	"pftk/internal/markov"
	"pftk/internal/serve"
)

// rates are the model outputs one point must get back, by model name.
type rates map[string]float64

// expect evaluates pt in-process through core (and markov, when asked),
// the oracle every response is compared against. markovDur is the time
// the Markov solve took, 0 for closed-form points.
func expect(pt point) (want rates, markovDur time.Duration, err error) {
	pr := core.Params{RTT: pt.RTT, T0: pt.T0, Wm: pt.Wm, B: core.DefaultB}
	want = rates{
		"approx":     core.SendRateApprox(pt.P, pr),
		"full":       core.SendRateFull(pt.P, pr),
		"tdonly":     core.SendRateTDOnly(pt.P, pt.RTT, core.DefaultB),
		"throughput": core.Throughput(pt.P, pr),
	}
	if pt.Markov {
		t := time.Now()
		m, err := markov.SendRate(pt.P, markov.Config{RTT: pt.RTT, T0: pt.T0, Wm: int(pt.Wm), B: core.DefaultB})
		markovDur = time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle: markov at %+v: %w", pt, err)
		}
		want["markov"] = m
	}
	return want, markovDur, nil
}

// oracle holds the expected rates of every key of a keyspace and the
// time each Markov solve took while computing them.
type oracle struct {
	want        []rates
	markovSolve []float64 // µs per Markov key
}

// newOracle evaluates every key of ks on GOMAXPROCS-many goroutines.
func newOracle(ks *keyspace, workers int) (*oracle, error) {
	o := &oracle{want: make([]rates, len(ks.points))}
	solve := make([]time.Duration, len(ks.points))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := w; k < len(ks.points); k += workers {
				want, d, err := expect(ks.points[k])
				if err != nil {
					errs[w] = err
					return
				}
				o.want[k], solve[k] = want, d
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k, pt := range ks.points {
		if pt.Markov {
			o.markovSolve = append(o.markovSolve, float64(solve[k])/1e3)
		}
	}
	return o, nil
}

// sameFloat reports bit-identical floats: a response must carry exactly
// the oracle's value after its JSON round trip.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPoint compares one decoded response with the point it answers.
func checkPoint(got serve.PredictResponse, pt point, want rates) error {
	req := got.Request
	if !sameFloat(req.P, pt.P) || !sameFloat(req.RTT, pt.RTT) || !sameFloat(req.T0, pt.T0) ||
		!sameFloat(req.Wm, pt.Wm) || req.B != core.DefaultB || !slices.Equal(req.Models, pt.models()) {
		return fmt.Errorf("response echoes request %+v, want the normalized form of %+v", req, pt)
	}
	if len(got.Rates) != len(want) {
		return fmt.Errorf("response has %d rates, want %d", len(got.Rates), len(want))
	}
	for m, w := range want {
		g, ok := got.Rates[m]
		if !ok || !sameFloat(g, w) {
			return fmt.Errorf("rate %q = %v, want %v at %+v", m, g, w, pt)
		}
	}
	return nil
}

// checkBody decodes a 200 response body to pts and checks every point,
// in request order. With want nil the oracle is evaluated here
// (predict-unique's points are never reused, so precomputing buys
// nothing).
func checkBody(body []byte, curve bool, pts []point, want []rates) error {
	var got []serve.PredictResponse
	if curve {
		var br serve.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		got = br.Results
	} else {
		var pr serve.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		got = []serve.PredictResponse{pr}
	}
	if len(got) != len(pts) {
		return fmt.Errorf("response has %d results, want %d", len(got), len(pts))
	}
	for i, pt := range pts {
		var w rates
		if want != nil {
			w = want[i]
		} else {
			var err error
			if w, _, err = expect(pt); err != nil {
				return err
			}
		}
		if err := checkPoint(got[i], pt, w); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
	}
	return nil
}
