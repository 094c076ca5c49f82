package tablefmt

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableASCII(t *testing.T) {
	tb := New("Sender", "Packets", "p")
	tb.AddRow("manic", "54402", "0.0133")
	tb.AddRow("void", "37137", "0.0226")
	out := tb.ASCII()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, rule, 2 rows):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Sender") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator line: %q", lines[1])
	}
	if !strings.Contains(lines[3], "0.0226") {
		t.Errorf("second row missing: %q", lines[3])
	}
	// Alignment: all rows should place column 2 at the same offset.
	idx0 := strings.Index(lines[0], "Packets")
	if idx2 := strings.Index(lines[2], "54402"); idx2 != idx0 {
		t.Errorf("column misaligned: header at %d, row at %d", idx0, idx2)
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tb := New("a", "b", "c")
	tb.AddRow("1")
	if tb.NumRows() != 1 || tb.NumCols() != 3 {
		t.Errorf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	out := tb.ASCII()
	if !strings.Contains(out, "1") {
		t.Error("cell missing")
	}
}

func TestTableRejectsLongRows(t *testing.T) {
	tb := New("a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tb.AddRow("1", "2")
}

func TestTableCSV(t *testing.T) {
	tb := New("x", "y")
	tb.AddRow("1", "two, quoted")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "x,y\n") {
		t.Errorf("header: %q", got)
	}
	if !strings.Contains(got, `"two, quoted"`) {
		t.Errorf("quoting: %q", got)
	}
}

func TestFigureCSV(t *testing.T) {
	var f Figure
	f.Title, f.XLabel, f.YLabel = "fig", "p", "rate"
	f.Add("model", []float64{0.1, 0.2}, []float64{10, 5})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "series,p,rate" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "model,0.1,10" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestFigureAddMismatchPanics(t *testing.T) {
	var f Figure
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Add("bad", []float64{1}, []float64{1, 2})
}

func TestFigureSummary(t *testing.T) {
	var f Figure
	f.Title, f.XLabel, f.YLabel = "Fig 12", "p", "B"
	f.Add("markov", []float64{0.01, 0.1}, []float64{12, 2})
	f.Add("empty", nil, nil)
	s := f.Summary()
	if !strings.Contains(s, "Fig 12") || !strings.Contains(s, "markov") {
		t.Errorf("summary: %s", s)
	}
	if !strings.Contains(s, "(empty)") {
		t.Errorf("empty series not flagged: %s", s)
	}
	if !strings.Contains(s, "n=2") {
		t.Errorf("count missing: %s", s)
	}
}
