package experiments

import (
	"testing"

	"pftk/internal/multiflow"
	"pftk/internal/netem"
	"pftk/internal/reno"
	"pftk/internal/sim"
)

// TestCampaignsKeepOnlyAnalysisProducts guards the regeneration's
// memory: campaign runs carry the stats and analysis products Table II
// and Figs. 8-10 read, but no per-packet trace.
func TestCampaignsKeepOnlyAnalysisProducts(t *testing.T) {
	o := Options{HourTraceDuration: 120, ShortTraces: 2, ShortTraceDuration: 40, IntervalWidth: 60, Salt: 7}
	var runs []PairRun
	runs = append(runs, RunCampaign(o).Runs...)
	for _, pairRuns := range RunShortCampaign(o).Runs {
		runs = append(runs, pairRuns...)
	}
	events := 0
	for _, run := range runs {
		name := run.Pair.Name()
		if run.Result.Trace != nil {
			t.Errorf("%s: campaign run keeps a %d-record trace", name, len(run.Result.Trace))
		}
		if run.Result.Stats.TotalSent() == 0 || run.Summary.PacketsSent == 0 || len(run.Intervals) == 0 {
			t.Errorf("%s: missing products: stats %+v, summary %+v, %d intervals",
				name, run.Result.Stats, run.Summary, len(run.Intervals))
		}
		if run.Summary.LossIndications > 0 && len(run.Events) == 0 {
			t.Errorf("%s: %d loss indications but no loss events", name, run.Summary.LossIndications)
		}
		events += len(run.Events)
	}
	if events == 0 {
		t.Error("no campaign run kept any loss events")
	}
}

// TestNonstationaryKeepsOnlyAnalysisProducts is the same guard for the
// scheduled-path campaign, whose hour-long traces would otherwise be the
// regeneration's largest live objects.
func TestNonstationaryKeepsOnlyAnalysisProducts(t *testing.T) {
	c := RunNonstationaryCampaign(Options{HourTraceDuration: 120, IntervalWidth: 30, Salt: 7})
	if len(c.Runs) == 0 {
		t.Fatal("no nonstationary runs")
	}
	for _, run := range c.Runs {
		name := run.Case.Name
		if run.Result.Trace != nil {
			t.Errorf("%s: campaign run keeps a %d-record trace", name, len(run.Result.Trace))
		}
		if run.Result.Stats.TotalSent() == 0 || run.Summary.PacketsSent == 0 || len(run.Intervals) == 0 || len(run.Phases) == 0 {
			t.Errorf("%s: missing products: stats %+v, summary %+v, %d intervals, %d phases",
				name, run.Result.Stats, run.Summary, len(run.Intervals), len(run.Phases))
		}
	}
}

// TestMultiflowRecordsNoTrace checks that every population of the
// scaling sweep runs trace-free senders that still count their traffic.
func TestMultiflowRecordsNoTrace(t *testing.T) {
	for _, n := range multiflowPopulations {
		res := multiflow.Run(multiflowConfig(n, 5, 1))
		for _, f := range res.Flows {
			if f.Result.Trace != nil {
				t.Fatalf("n=%d flow %d: %d trace records", n, f.ID, len(f.Result.Trace))
			}
			if f.Result.Stats.TotalSent() == 0 {
				t.Fatalf("n=%d flow %d: sent nothing", n, f.ID)
			}
		}
	}
}

// TestFairnessRecordsNoTrace checks that the fairness study's TCP
// sender configuration records no trace but still samples RTTs.
func TestFairnessRecordsNoTrace(t *testing.T) {
	var eng sim.Engine
	fwd := netem.NewLink(&eng, netem.LinkConfig{Rate: 100, QueueCap: 25, Delay: netem.ConstantDelay(0.04)})
	rev := netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.04)})
	snd := reno.NewSender(&eng, fwd, fairnessSenderConfig())
	rcv := reno.NewReceiver(&eng, rev, snd.OnAck, reno.ReceiverConfig{})
	snd.SetDeliver(rcv.OnPacket)
	snd.Start()
	eng.RunUntil(30)
	if tr := snd.Trace(); tr != nil {
		t.Errorf("fairness sender kept %d trace records", len(tr))
	}
	if st := snd.Stats(); st.TotalSent() == 0 || st.RTTSamples == 0 {
		t.Errorf("fairness sender stats %+v: want traffic and RTT samples", st)
	}
}
