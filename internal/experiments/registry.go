package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Runner regenerates one paper artifact.
type Runner func(Options) *Report

// artifacts lists every experiment in regeneration order. fromCampaigns,
// when set, builds the artifact from the shared 1-hour and 100-second
// campaigns, which RunAllTimed runs once for all their readers.
var artifacts = []struct {
	id            string
	run           Runner
	fromCampaigns func(long *Campaign, short *ShortCampaign) *Report
}{
	{"table1", Table1, nil},
	{"table2", Table2, func(long *Campaign, _ *ShortCampaign) *Report { return table2From(long) }},
	{"fig7", Fig7, func(long *Campaign, _ *ShortCampaign) *Report { return fig7From(long) }},
	{"fig8", Fig8, func(_ *Campaign, short *ShortCampaign) *Report { return fig8From(short) }},
	{"fig9", Fig9, func(long *Campaign, _ *ShortCampaign) *Report { return fig9From(long) }},
	{"fig10", Fig10, func(_ *Campaign, short *ShortCampaign) *Report { return fig10From(short) }},
	{"fig11", Fig11, nil},
	{"fig12", Fig12, nil},
	{"fig13", Fig13, nil},
	{"correlation", Correlation, nil},
	{"lossmodels", LossModels, nil},
	{"shortflows", ShortFlows, nil},
	{"fairness", Fairness, nil},
	{"multiflow", Multiflow, nil},
	{"regimes", Regimes, nil},
	{"evolution", Evolution, nil},
	{"nonstationary", Nonstationary, nil},
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(artifacts))
	for _, a := range artifacts {
		out = append(out, a.id)
	}
	sort.Strings(out)
	return out
}

// Get returns the runner for an experiment ID. The error for an unknown
// ID lists every valid one, so a CLI typo is self-correcting.
func Get(id string) (Runner, error) {
	for _, a := range artifacts {
		if a.id == id {
			return a.run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q; valid ids: %s",
		id, strings.Join(IDs(), ", "))
}

// RunAllTimed regenerates every artifact. The 1-hour and 100-second
// campaigns are executed once and shared between the experiments that
// consume them (Table II + Figs. 7 and 9, and Fig. 8 + Fig. 10), so
// every trace is simulated once. onDone (when non-nil) receives each
// finished report and its wall-clock cost, in the order of the artifact
// list; the campaign tools use it to stamp run manifests.
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
	out := make([]*Report, 0, len(artifacts))
	for _, a := range artifacts {
		var r *Report
		var wall float64
		if a.id == "multiflow" && mf.done != nil {
			<-mf.done
			r, wall = mf.r, mf.wall
		} else {
			t0 := time.Now()
			if a.fromCampaigns != nil {
				r = a.fromCampaigns(long, short)
			} else {
				r = a.run(o)
			}
			wall = time.Since(t0).Seconds()
		}
		// The shared campaigns' cost is attributed to the first artifact
		// consuming them (Table II) rather than hidden.
		if a.id == "table2" {
			wall += campaignCost
		}
		out = append(out, r)
		if onDone != nil {
			onDone(r, wall)
		}
	}
	return out
}
