package chaos

import "pftk/internal/scenario"

// defaultShrinkBudget caps case executions per shrink. Each candidate
// evaluation runs the simulator twice (the replay invariant), so the
// budget is what keeps a pathological failure from stalling a campaign.
const defaultShrinkBudget = 150

// Shrink greedily minimizes a failing case while preserving the named
// failing invariant: at each step it tries a deterministic sequence of
// simplifications — drop a fault train, drop a phase, drop the whole
// scenario, halve the duration, simplify the fixed-path knobs — and
// keeps the first candidate that is still valid and still fails the
// same invariant, restarting from it. It stops at a fixpoint (no
// candidate keeps the failure) or when the execution budget runs out,
// and returns the smallest failing case found.
//
// The walk is deterministic: candidates are tried in a fixed order and
// every evaluation is itself deterministic, so a shrink is as
// replayable as the campaign that triggered it.
func Shrink(c Case, invariant string, env Envelope, hook func(Case, *Outcome), budget int) Case {
	fails := func(cand Case) bool {
		if budget <= 0 {
			return false
		}
		if cand.Validate() != nil {
			return false
		}
		budget--
		out := RunCase(cand, env)
		if hook != nil {
			hook(cand, &out)
		}
		return findViolation(out, invariant) != ""
	}

	cur := c
	for {
		improved := false
		for _, cand := range candidates(cur) {
			if fails(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved || budget <= 0 {
			return cur
		}
	}
}

// candidates returns the deterministic sequence of one-step
// simplifications of c, most aggressive first: structural deletions
// shrink faster than scalar halvings, so they lead.
func candidates(c Case) []Case {
	var out []Case
	if sc := c.Scenario; sc != nil {
		// Drop the whole scenario.
		whole := c
		whole.Scenario = nil
		out = append(out, whole)
		// Drop one fault train at a time.
		for i := range sc.Faults {
			out = append(out, withScenario(c, scenario.Scenario{
				Name:     sc.Name,
				Duration: sc.Duration,
				Phases:   sc.Phases,
				Faults:   without(sc.Faults, i),
			}))
		}
		// Drop one phase at a time.
		for i := range sc.Phases {
			out = append(out, withScenario(c, scenario.Scenario{
				Name:     sc.Name,
				Duration: sc.Duration,
				Phases:   without(sc.Phases, i),
				Faults:   sc.Faults,
			}))
		}
		// Collapse a periodic train to a one-shot window.
		for i, f := range sc.Faults {
			if f.Period > 0 {
				faults := append([]scenario.Fault(nil), sc.Faults...)
				faults[i].Period = 0
				faults[i].Count = 0
				out = append(out, withScenario(c, scenario.Scenario{
					Name: sc.Name, Duration: sc.Duration, Phases: sc.Phases, Faults: faults,
				}))
			}
		}
	}
	// Multi-flow simplifications: collapse to the single-flow pipeline
	// first (the failure may not need competing flows at all), else
	// halve the population while scaling the bottleneck to keep each
	// remaining flow's share — and therefore its congestion regime —
	// unchanged.
	if c.Flows >= 2 {
		single := c
		single.Flows, single.FlowRate, single.FlowQueue = 0, 0, 0
		out = append(out, single)
		if half := c.Flows / 2; half >= 2 {
			cand := c
			cand.Flows = half
			cand.FlowRate = c.FlowRate * float64(half) / float64(c.Flows)
			cand.FlowQueue = c.FlowQueue * half / c.Flows
			if cand.FlowQueue < 1 {
				cand.FlowQueue = 1
			}
			out = append(out, cand)
		}
	}
	// Halve the duration (scenario duration tracks it; candidates whose
	// program no longer fits are rejected by Validate inside Shrink).
	if c.Duration > 2 {
		half := c
		half.Duration = c.Duration / 2
		if half.Scenario != nil {
			sc := *half.Scenario
			sc.Duration = half.Duration
			half.Scenario = &sc
		}
		out = append(out, half)
	}
	// Simplify the fixed-path knobs toward the defaults.
	if c.BurstDur > 0 {
		cand := c
		cand.BurstDur = 0
		out = append(out, cand)
	}
	if c.LossRate > 0.02 {
		cand := c
		cand.LossRate = c.LossRate / 2
		out = append(out, cand)
	}
	if c.Variant != "reno" {
		cand := c
		cand.Variant = "reno"
		out = append(out, cand)
	}
	if c.AckEvery != 2 {
		cand := c
		cand.AckEvery = 2
		out = append(out, cand)
	}
	if c.Wm > 16 {
		cand := c
		cand.Wm = c.Wm / 2
		out = append(out, cand)
	}
	return out
}

// withScenario returns c with the given scenario, dropping it entirely
// when it has become empty.
func withScenario(c Case, sc scenario.Scenario) Case {
	if len(sc.Phases) == 0 && len(sc.Faults) == 0 {
		c.Scenario = nil
		return c
	}
	c.Scenario = &sc
	return c
}

// without returns s with element i removed, never aliasing s.
func without[T any](s []T, i int) []T {
	if len(s) <= 1 {
		return nil
	}
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
