package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress reports live campaign progress with an ETA. Each Step prints
// one carriage-return-prefixed status line (suitable for a terminal on
// stderr); Done terminates the line with a summary. Writes are
// best-effort: a failing writer never interrupts a campaign.
//
// A nil *Progress discards everything, so campaign code calls it
// unconditionally. Safe for concurrent use.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	total   int
	done    int
	started time.Time
	now     func() time.Time // test hook
}

// NewProgress returns a reporter for total units of work, or nil (the
// no-op reporter) when w is nil.
func NewProgress(w io.Writer, label string, total int) *Progress {
	if w == nil {
		return nil
	}
	if total < 1 {
		total = 1
	}
	p := &Progress{w: w, label: label, total: total, now: time.Now}
	p.started = p.now()
	return p
}

// Step records one finished unit (described by unit, e.g. the pair name)
// and reprints the status line with elapsed time and ETA.
func (p *Progress) Step(unit string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	elapsed := p.now().Sub(p.started)
	eta := "?"
	if p.done > 0 && p.done <= p.total {
		rem := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		eta = rem.Round(time.Second).String()
	}
	// Pad so a shrinking line never leaves stale characters behind the
	// carriage return.
	line := fmt.Sprintf("%s [%d/%d] %s elapsed %s eta %s",
		p.label, p.done, p.total, unit, elapsed.Round(time.Second), eta)
	_, _ = fmt.Fprintf(p.w, "\r%-79s", line)
}

// Done terminates the status line with a completion summary. Further
// Steps start a fresh line.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := p.now().Sub(p.started)
	line := fmt.Sprintf("%s done: %d/%d in %s", p.label, p.done, p.total, elapsed.Round(time.Millisecond))
	_, _ = fmt.Fprintf(p.w, "\r%s%s\n", line, strings.Repeat(" ", max(0, 79-len(line))))
}
