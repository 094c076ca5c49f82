package main

import (
	"math"
	"math/rand"
	"strconv"
)

// Traffic shape shared by both predict workloads. The server under test
// is built with pftkd's default 4096-entry cache; the Zipf keyspace is
// eight times that, so the cache sees a long tail it cannot hold.
const (
	nClients     = 2    // closed-loop connections
	cacheEntries = 4096 // pftkd -cache default
	zipfPaths    = 2048 // paths (RTT, T0, Wm) in the Zipf keyspace
	curvePoints  = 16   // loss rates per path; a curve asks for all of them
	zipfKeys     = zipfPaths * curvePoints
	zipfS        = 1.1 // Zipf exponent of key popularity
	markovEvery  = 8   // 1 path (so 1 key) in 8 also asks for the Markov chain
	curveEvery   = 16  // 1 request in 16 is a 16-point curve
	uniqueBits   = 24  // predict-unique draws at most 2^24 points per run
	uniqueSlots  = 1 << uniqueBits
	pLoUnique    = 1e-4
	pHiUnique    = 0.3
	pLoZipf      = 1e-3
	pHiZipf      = 0.2
	wmLo, wmHi   = 4, 32 // advertised windows, packets
)

// markovModels is the model list of a Markov key, deliberately unsorted:
// the server normalizes it, and the check compares against the sorted
// form it must echo back.
var markovModels = []string{"markov", "throughput", "full", "tdonly", "approx"}

// point is one operating point as sent to /v1/predict. Wm is always a
// whole number of packets so the Markov chain accepts it.
type point struct {
	P, RTT, T0, Wm float64
	Markov         bool
}

// models returns the normalized model list the server must echo for pt.
func (pt point) models() []string {
	if pt.Markov {
		return []string{"approx", "full", "markov", "tdonly", "throughput"}
	}
	return []string{"approx", "full", "tdonly", "throughput"}
}

// appendPoint renders pt as the JSON object of one predict request.
// strconv's shortest 'g' form round-trips exactly, so the server parses
// the very floats the oracle evaluates.
func appendPoint(b []byte, pt point) []byte {
	b = append(b, `{"p":`...)
	b = strconv.AppendFloat(b, pt.P, 'g', -1, 64)
	b = append(b, `,"rtt":`...)
	b = strconv.AppendFloat(b, pt.RTT, 'g', -1, 64)
	b = append(b, `,"t0":`...)
	b = strconv.AppendFloat(b, pt.T0, 'g', -1, 64)
	b = append(b, `,"wm":`...)
	b = strconv.AppendFloat(b, pt.Wm, 'g', -1, 64)
	if pt.Markov {
		b = append(b, `,"models":[`...)
		for i, m := range markovModels {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, m)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendCurve renders a batch request over pts, in order.
func appendCurve(b []byte, pts []point) []byte {
	b = append(b, `{"requests":[`...)
	for i, pt := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPoint(b, pt)
	}
	return append(b, "]}"...)
}

// clientRand is the random stream of one client under a run seed.
// Negative clients name the run-wide streams: -1 draws the Zipf keyspace,
// -2 the predict-unique slot permutation.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 7))
}

// logUniform maps u in [0, 1) onto [lo, hi) evenly in log space.
func logUniform(lo, hi, u float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// drawPath draws the (RTT, T0, Wm) of one operating point.
func drawPath(r *rand.Rand) point {
	rtt := 0.01 + 0.49*r.Float64()
	return point{
		RTT: rtt,
		T0:  rtt * (2 + 8*r.Float64()),
		Wm:  float64(wmLo + r.Intn(wmHi-wmLo+1)),
	}
}

// uniqueGen is one client's stream for predict-unique. Point n of the run
// (client c's i-th point is n = c + nClients*i) gets its own slice of the
// loss-rate range: p lies in slot perm(n) of uniqueSlots equal slices of
// [pLoUnique, pHiUnique) in log space, and perm is a bijection, so no two
// points of a run share a p — hence no normalized key ever repeats.
type uniqueGen struct {
	r   *rand.Rand
	n   uint32 // next global point index
	xor uint32 // seed-derived mask of the slot permutation
}

func newUniqueGen(seed int64, client int) *uniqueGen {
	return &uniqueGen{
		r:   clientRand(seed, client),
		n:   uint32(client),
		xor: uint32(clientRand(seed, -2).Int63()) & (uniqueSlots - 1),
	}
}

// slot is the permutation of [0, uniqueSlots): an odd multiplier and an
// xor are both bijections modulo a power of two.
func (g *uniqueGen) slot(n uint32) uint32 {
	return (n*0x9E3779B1 ^ g.xor) & (uniqueSlots - 1)
}

// next returns the client's next point, or false once the run has used
// every slot (2^24 points, far beyond a minute of traffic).
func (g *uniqueGen) next() (point, bool) {
	if g.n >= uniqueSlots {
		return point{}, false
	}
	pt := drawPath(g.r)
	u := (float64(g.slot(g.n)) + g.r.Float64()) / uniqueSlots
	pt.P = logUniform(pLoUnique, pHiUnique, u)
	g.n += nClients
	return pt, true
}

// keyspace is predict-zipf's fixed set of operating points: zipfPaths
// paths of curvePoints loss rates each, key k = path*curvePoints + j.
// Popularity ranks map to keys (and curves to paths) through seeded
// permutations, so the hot keys are spread over the whole space.
type keyspace struct {
	points     []point
	singleBody [][]byte // request body per key
	curveBody  [][]byte // request body per path
	keyOfRank  []int32
	pathOfRank []int32
}

func newKeyspace(seed int64) *keyspace {
	r := clientRand(seed, -1)
	ks := &keyspace{
		points:     make([]point, zipfKeys),
		singleBody: make([][]byte, zipfKeys),
		curveBody:  make([][]byte, zipfPaths),
	}
	markovRank := r.Perm(zipfPaths)
	for path := 0; path < zipfPaths; path++ {
		base := drawPath(r)
		base.Markov = markovRank[path]%markovEvery == 0
		for j := 0; j < curvePoints; j++ {
			pt := base
			pt.P = logUniform(pLoZipf, pHiZipf, (float64(j)+r.Float64())/curvePoints)
			k := path*curvePoints + j
			ks.points[k] = pt
			ks.singleBody[k] = appendPoint(nil, pt)
		}
		ks.curveBody[path] = appendCurve(nil, ks.points[path*curvePoints:(path+1)*curvePoints])
	}
	ks.keyOfRank = int32Perm(r, zipfKeys)
	ks.pathOfRank = int32Perm(r, zipfPaths)
	return ks
}

func int32Perm(r *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i, v := range r.Perm(n) {
		out[i] = int32(v)
	}
	return out
}

// zipfGen is one client's stream for predict-zipf.
type zipfGen struct {
	ks    *keyspace
	r     *rand.Rand
	key   *rand.Zipf
	curve *rand.Zipf
}

func newZipfGen(ks *keyspace, seed int64, client int) *zipfGen {
	r := clientRand(seed, client)
	return &zipfGen{
		ks:    ks,
		r:     r,
		key:   rand.NewZipf(r, zipfS, 1, zipfKeys-1),
		curve: rand.NewZipf(r, zipfS, 1, zipfPaths-1),
	}
}

// zipfReq names one predict-zipf request: a single key, or (curve) all
// curvePoints keys of one path.
type zipfReq struct {
	curve bool
	idx   int32 // key, or path for a curve
}

func (g *zipfGen) next() zipfReq {
	if g.r.Intn(curveEvery) == 0 {
		return zipfReq{curve: true, idx: g.ks.pathOfRank[g.curve.Uint64()]}
	}
	return zipfReq{idx: g.ks.keyOfRank[g.key.Uint64()]}
}

// body returns the request body of q.
func (ks *keyspace) body(q zipfReq) []byte {
	if q.curve {
		return ks.curveBody[q.idx]
	}
	return ks.singleBody[q.idx]
}
