package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Runner regenerates one paper artifact.
type Runner func(Options) *Report

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"table1":        Table1,
	"table2":        Table2,
	"fig7":          Fig7,
	"fig8":          Fig8,
	"fig9":          Fig9,
	"fig10":         Fig10,
	"fig11":         Fig11,
	"fig12":         Fig12,
	"fig13":         Fig13,
	"correlation":   Correlation,
	"lossmodels":    LossModels,
	"shortflows":    ShortFlows,
	"fairness":      Fairness,
	"multiflow":     Multiflow,
	"regimes":       Regimes,
	"evolution":     Evolution,
	"nonstationary": Nonstationary,
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the runner for an experiment ID. The error for an unknown
// ID lists every valid one, so a CLI typo is self-correcting.
func Get(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q; valid ids: %s",
			id, strings.Join(IDs(), ", "))
	}
	return r, nil
}

// RunAllTimed regenerates every artifact. The 1-hour and 100-second
// campaigns are executed once and shared between the experiments that
// consume them (Table II + Fig. 9, and Fig. 8 + Fig. 10). onDone (when
// non-nil) receives each finished report and its wall-clock cost, in
// registry order; the campaign tools use it to stamp run manifests.
//
// With Workers >= 2 the N-flow scaling run, the longest single
// artifact, starts first on a worker of its own (Multiflow with
// Workers = 1) while the campaigns and the other artifacts share the
// remaining Workers - 1, so total concurrency stays Workers. Every
// artifact's result is independent of the worker count, so the reports
// are the same as a serial run's. Multiflow's wall time is then its own
// elapsed time on its worker, overlapped with the rest: the artifact
// walls no longer sum to the regeneration's wall time, and pftkbench's
// layers.unattributed_frac (one minus their sum over that wall) may
// read negative.
func RunAllTimed(o Options, onDone func(r *Report, wallSeconds float64)) []*Report {
	o = o.normalize()
	var mf struct {
		done chan struct{} // closed once r and wall are set; nil when serial
		r    *Report
		wall float64
	}
	if o.Workers >= 2 {
		mo := o
		mo.Workers = 1
		o.Workers--
		mf.done = make(chan struct{})
		go func() {
			t0 := time.Now()
			mf.r = Multiflow(mo)
			mf.wall = time.Since(t0).Seconds()
			close(mf.done)
		}()
	}
	start := time.Now()
	long := RunCampaign(o)
	short := RunShortCampaign(o)
	campaignCost := time.Since(start).Seconds()
	steps := []struct {
		id  string
		run func() *Report
	}{
		{"table1", func() *Report { return Table1(o) }},
		{"table2", func() *Report { return table2From(long) }},
		{"fig7", func() *Report { return Fig7(o) }},
		{"fig8", func() *Report { return fig8From(short) }},
		{"fig9", func() *Report { return fig9From(long) }},
		{"fig10", func() *Report { return fig10From(short) }},
		{"fig11", func() *Report { return Fig11(o) }},
		{"fig12", func() *Report { return Fig12(o) }},
		{"fig13", func() *Report { return Fig13(o) }},
		{"correlation", func() *Report { return Correlation(o) }},
		{"lossmodels", func() *Report { return LossModels(o) }},
		{"shortflows", func() *Report { return ShortFlows(o) }},
		{"fairness", func() *Report { return Fairness(o) }},
		{"multiflow", func() *Report { return Multiflow(o) }},
		{"regimes", func() *Report { return Regimes(o) }},
		{"evolution", func() *Report { return Evolution(o) }},
		{"nonstationary", func() *Report { return Nonstationary(o) }},
	}
	out := make([]*Report, 0, len(steps))
	for _, s := range steps {
		var r *Report
		var wall float64
		if s.id == "multiflow" && mf.done != nil {
			<-mf.done
			r, wall = mf.r, mf.wall
		} else {
			t0 := time.Now()
			r = s.run()
			wall = time.Since(t0).Seconds()
		}
		// The shared campaigns' cost is attributed to the first artifact
		// consuming them (Table II) rather than hidden.
		if s.id == "table2" {
			wall += campaignCost
		}
		out = append(out, r)
		if onDone != nil {
			onDone(r, wall)
		}
	}
	return out
}
