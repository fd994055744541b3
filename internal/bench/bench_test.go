package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// The Quick config exercises every runner end to end; shape assertions
// are loose (zero-latency fabric) but catch wiring mistakes.

func TestFig3Quick(t *testing.T) {
	fig, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Y[0] <= 0 {
			t.Fatalf("series %s has nonpositive latency", s.Label)
		}
	}
	// No ordering assertion here: on the zero-cost Quick fabric the
	// BT/SI/MV separation is dominated by scheduler noise. The
	// calibrated run (mvbench with Defaults) is where the paper's
	// ordering is checked; see TestFig8SkewCollapse for the pattern.
	if out := fig.String(); !strings.Contains(out, "FIG3") {
		t.Fatalf("render: %q", out)
	}
}

func TestFig4Quick(t *testing.T) {
	fig, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has nonpositive throughput", s.Label)
			}
		}
	}
	if csv := fig.CSV(); !strings.HasPrefix(csv, "x,BT,SI,MV") {
		t.Fatalf("csv header: %q", csv)
	}
}

func TestFig5Quick(t *testing.T) {
	fig, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range fig.Series {
		vals[s.Label] = s.Y[0]
	}
	// The MV pre-read (two quorum rounds vs one) must show up even on
	// the free fabric.
	if vals["MV"] <= vals["BT"] {
		t.Fatalf("MV write (%.4fms) not slower than BT (%.4fms)", vals["MV"], vals["BT"])
	}
}

func TestFig6Quick(t *testing.T) {
	fig, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
}

func TestFig7Quick(t *testing.T) {
	fig, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 3 {
			t.Fatalf("series %s has %d gaps", s.Label, len(s.X))
		}
	}
}

func TestFig8Quick(t *testing.T) {
	fig, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) != 3 {
		t.Fatalf("points = %d", len(s.X))
	}
	for _, y := range s.Y {
		if y <= 0 {
			t.Fatal("nonpositive throughput")
		}
	}
}

func TestFig8SkewCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the capacity-model fabric")
	}
	// The collapse only appears with finite node capacity and network
	// latency: propagation work for the hot row then competes with the
	// writes. Scaled-down version of the paper config.
	cfg := Defaults()
	cfg.Rows = 4000
	cfg.RangeWidths = []int{1, 4000}
	cfg.SkewClients = 8
	cfg.Duration = 1200 * time.Millisecond
	cfg.Warmup = 200 * time.Millisecond
	fig, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if s.Y[0] >= s.Y[1]*0.7 {
		t.Fatalf("no skew collapse: width=1 %.0f vs width=4000 %.0f\n%s", s.Y[0], s.Y[1], fig)
	}
}

func TestAblationsQuick(t *testing.T) {
	cfg := Quick()
	for _, run := range []struct {
		name string
		fn   func(Config) (Figure, error)
	}{
		{"preread", AblationPreRead},
		{"sync", AblationSyncMaintenance},
		{"matwidth", AblationMaterializedWidth},
	} {
		fig, err := run.fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("%s: empty figure", run.name)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "demo", XLabel: "x",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{2, 3}, Y: []float64{5, 6.5}},
		},
		Notes: []string{"hello"},
	}
	out := fig.String()
	for _, want := range []string{"FIGX", "a", "b", "10", "6.5", "note: hello", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "x,a,b") || !strings.Contains(csv, "3,,6.5") {
		t.Fatalf("csv:\n%s", csv)
	}
	empty := Figure{ID: "e", Title: "t"}
	if !strings.Contains(empty.String(), "no data") {
		t.Fatal("empty figure rendering")
	}
}

// ParseCSV inverts CSV: every series comes back, a series missing some
// X values (empty cells) included, and malformed files are refused.
func TestParseCSVRoundTrip(t *testing.T) {
	fig := Figure{Series: []Series{
		{Label: "BT", X: []float64{1, 2, 3}, Y: []float64{6.213, 24.5, 0}},
		{Label: "SI", X: []float64{2}, Y: []float64{40.987}},
		{Label: "MV", X: []float64{1, 3, 1000}, Y: []float64{160.931, 7, 12}},
	}}
	got, err := ParseCSV([]byte(fig.CSV()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fig) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, fig)
	}
	for _, bad := range []string{
		"",
		"x\n1\n",
		"x,a,b\n1,2\n",
		"x,a\n1,2,3\n",
		"x,a\none,2\n",
		"x,a\n1,two\n",
	} {
		if _, err := ParseCSV([]byte(bad)); err == nil {
			t.Errorf("ParseCSV(%q) accepted a malformed file", bad)
		}
	}
}

func TestPlot(t *testing.T) {
	fig := Figure{Series: []Series{
		{Label: "MV", X: []float64{1, 10, 100}, Y: []float64{22, 184, 728}},
		{Label: "BT", X: []float64{1, 100}, Y: []float64{5, 300}},
	}}
	out := fig.Plot(true)
	for _, want := range []string{"728 ┤", "legend: * MV   o BT", "1" + strings.Repeat(" ", 60) + "100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	if got := (Figure{}).Plot(false); got != "  (no data)\n" {
		t.Fatalf("empty plot = %q", got)
	}
}
