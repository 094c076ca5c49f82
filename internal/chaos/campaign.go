package chaos

import (
	"encoding/json"
	"fmt"

	"pftk/internal/workpool"
)

// Config parameterizes one campaign.
type Config struct {
	// Spec is the case distribution; nil selects DefaultSpec.
	Spec *Spec
	// Runs is the number of cases to generate and check.
	Runs int
	// Seed is the campaign seed; (Spec, Seed) replays the campaign
	// exactly.
	Seed uint64
	// Workers sizes the worker pool (floored at 1). The report is
	// byte-identical at any worker count.
	Workers int
	// CorpusDir, when non-empty, receives a shrunk minimal repro file
	// for each failing case (capped by MaxRepros).
	CorpusDir string
	// MaxRepros caps the number of failures shrunk and written per
	// campaign; 0 selects a small default. Shrinking re-executes the
	// case dozens of times, so an invariant bug that fails every case
	// must not turn the campaign into a quadratic stall.
	MaxRepros int
	// Hook, when set, runs after every case's invariant checks with the
	// case and its outcome; it may append violations. Tests use it to
	// prove the shrink-and-corpus pipeline end to end with an
	// intentionally broken invariant.
	Hook func(Case, *Outcome)
	// Progress, when set, is called after each completed case with
	// (done, total). Calls arrive from worker goroutines.
	Progress func(done, total int)
}

// Report is a campaign's serializable result: everything needed to
// audit or replay it, and nothing machine-dependent — no wall times, no
// hostnames — so two same-seed campaigns diff empty byte for byte.
type Report struct {
	// SpecName and SpecHash identify the exact distribution.
	SpecName string `json:"spec_name"`
	SpecHash string `json:"spec_hash"`
	// Seed is the campaign seed.
	Seed uint64 `json:"seed"`
	// Runs is the number of cases checked.
	Runs int `json:"runs"`
	// Failures counts cases with at least one violation.
	Failures int `json:"failures"`
	// Outcomes holds every case's outcome in index order.
	Outcomes []Outcome `json:"outcomes"`
	// Repros lists the corpus files written for shrunk failures.
	Repros []string `json:"repros,omitempty"`
}

// Encode renders the report as indented JSON.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: report: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Run executes the campaign: generate Runs cases from (Spec, Seed),
// check every invariant on each across the worker pool, then shrink and
// persist the first failures. Outcomes land in a preallocated slice
// indexed by case — workers never contend on shared accumulators — so
// the report is deterministic at any worker count.
func Run(cfg Config) (*Report, error) {
	sp := cfg.Spec
	if sp == nil {
		def := DefaultSpec()
		sp = &def
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("chaos: campaign needs a positive run count, got %d", cfg.Runs)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	// Generation is sequential and cheap; execution is the parallel
	// part. Generating up front also means a generator bug fails fast.
	cases := make([]Case, cfg.Runs)
	genErrs := make([]error, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		cases[i], genErrs[i] = Generate(sp, cfg.Seed, i)
	}

	outcomes := make([]Outcome, cfg.Runs)
	pool := workpool.New(workers, workers*2)
	done := make(chan int, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		i := i
		pool.Submit(func() {
			outcomes[i] = evaluate(cases[i], genErrs[i], sp.Envelope, cfg.Hook)
			done <- i
		})
	}
	for i := 0; i < cfg.Runs; i++ {
		<-done
		if cfg.Progress != nil {
			cfg.Progress(i+1, cfg.Runs)
		}
	}
	pool.Close()

	rep := &Report{
		SpecName: sp.Name,
		SpecHash: sp.Hash(),
		Seed:     cfg.Seed,
		Runs:     cfg.Runs,
		Outcomes: outcomes,
	}
	for i := range outcomes {
		if outcomes[i].Failed() {
			rep.Failures++
		}
	}
	if rep.Failures > 0 && cfg.CorpusDir != "" {
		if err := shrinkAndPersist(rep, cases, sp.Envelope, cfg); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// evaluate checks one case: a generation error is itself a violation
// (the generator's contract is "always valid"), otherwise the full
// invariant battery runs, then the optional hook.
func evaluate(c Case, genErr error, env Envelope, hook func(Case, *Outcome)) Outcome {
	var out Outcome
	if genErr != nil {
		out = Outcome{Index: c.Index, CaseHash: c.Hash()}
		out.violate(InvGenerate, "%v", genErr)
		return out
	}
	out = RunCase(c, env)
	if hook != nil {
		hook(c, &out)
	}
	return out
}

// shrinkAndPersist minimizes the first failing cases (in index order)
// and writes each minimal repro to the corpus directory.
func shrinkAndPersist(rep *Report, cases []Case, env Envelope, cfg Config) error {
	maxRepros := cfg.MaxRepros
	if maxRepros <= 0 {
		maxRepros = 5
	}
	for i := range rep.Outcomes {
		if len(rep.Repros) >= maxRepros {
			break
		}
		if !rep.Outcomes[i].Failed() {
			continue
		}
		v := rep.Outcomes[i].Violations[0]
		if v.Invariant == InvGenerate {
			// Nothing to shrink: the case never ran. Persist as-is so
			// the generator bug still has a committed repro.
			path, err := WriteCorpusEntry(cfg.CorpusDir, CorpusEntry{
				Version: CorpusVersion, Invariant: v.Invariant, Detail: v.Detail, Case: cases[i],
			})
			if err != nil {
				return err
			}
			rep.Repros = append(rep.Repros, path)
			continue
		}
		min := Shrink(cases[i], v.Invariant, env, cfg.Hook, defaultShrinkBudget)
		minOut := evaluate(min, nil, env, cfg.Hook)
		detail := v.Detail
		if d := findViolation(minOut, v.Invariant); d != "" {
			detail = d
		}
		path, err := WriteCorpusEntry(cfg.CorpusDir, CorpusEntry{
			Version: CorpusVersion, Invariant: v.Invariant, Detail: detail, Case: min,
		})
		if err != nil {
			return err
		}
		rep.Repros = append(rep.Repros, path)
	}
	return nil
}

// findViolation returns the detail of the named invariant's violation
// in out, or "".
func findViolation(out Outcome, invariant string) string {
	for _, v := range out.Violations {
		if v.Invariant == invariant {
			return v.Detail
		}
	}
	return ""
}
