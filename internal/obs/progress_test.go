package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock hands out times advancing 10 s per call.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(10 * time.Second)
	return c.t
}

func TestProgressReportsETA(t *testing.T) {
	var buf strings.Builder
	p := NewProgress(&buf, "campaign", 4)
	p.now = (&fakeClock{t: time.Unix(1000, 0)}).now
	p.started = time.Unix(1000, 0)
	p.Step("manic-alps")
	out := buf.String()
	if !strings.Contains(out, "[1/4]") || !strings.Contains(out, "manic-alps") {
		t.Errorf("progress line missing fields: %q", out)
	}
	// 1 unit in 10s => 3 remaining units => 30s ETA.
	if !strings.Contains(out, "eta 30s") {
		t.Errorf("ETA missing or wrong: %q", out)
	}
	p.Step("b")
	p.Step("c")
	p.Step("d")
	p.Done()
	out = buf.String()
	if !strings.Contains(out, "[4/4]") || !strings.Contains(out, "done: 4/4") {
		t.Errorf("completion summary missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Done must terminate the line")
	}
}

func TestNilProgressDiscards(t *testing.T) {
	p := NewProgress(nil, "x", 10)
	if p != nil {
		t.Fatal("nil writer must produce the nil reporter")
	}
	p.Step("a") // must not panic
	p.Done()
}
