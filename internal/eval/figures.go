package eval

import (
	"fmt"
	"io"
	"sort"

	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// Figure describes one panel of the paper's Figure 2.
type Figure struct {
	// ID is the panel label ("2a" .. "2f").
	ID string
	// Title matches the paper's caption.
	Title string
	// TopologyName is the built-in topology.
	TopologyName string
	// FailureCount is the number of simultaneous link failures (1 =
	// enumerate all single failures; >1 = seeded sampling).
	FailureCount int
	// Scenarios is how many sampled multi-failure scenarios to evaluate
	// (ignored for single failures).
	Scenarios int
	// Seed drives multi-failure sampling.
	Seed int64
	// UnitWeights evaluates on hop-count link weights instead of
	// great-circle distances. The paper does not state its weighting; the
	// default here is distance, and this flag regenerates the unit-weight
	// variant for comparison (tails shrink, ordering is unchanged).
	UnitWeights bool
}

// Figures returns the paper's six panels in order. Multi-failure counts
// (4, 10, 16) match the captions of Figures 2(d), 2(e), 2(f).
func Figures() []Figure {
	return []Figure{
		{ID: "2a", Title: "Abilene with single failures", TopologyName: "abilene", FailureCount: 1},
		{ID: "2b", Title: "Teleglobe with single failures", TopologyName: "teleglobe", FailureCount: 1},
		{ID: "2c", Title: "Geant with single failures", TopologyName: "geant", FailureCount: 1},
		{ID: "2d", Title: "Abilene with 4 failures", TopologyName: "abilene", FailureCount: 4, Scenarios: 300, Seed: 24},
		{ID: "2e", Title: "Teleglobe with 10 failures", TopologyName: "teleglobe", FailureCount: 10, Scenarios: 300, Seed: 25},
		{ID: "2f", Title: "Geant with 16 failures", TopologyName: "geant", FailureCount: 16, Scenarios: 300, Seed: 26},
	}
}

// FigureByID returns the panel description for an ID like "2a".
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("eval: unknown figure %q (want 2a..2f)", id)
}

// BuildSpec turns a Figure into a runnable Spec.
func BuildSpec(f Figure) (Spec, error) {
	w := topo.DistanceWeights
	if f.UnitWeights {
		w = topo.UnitWeights
	}
	tp, err := topo.ByNameWeighted(f.TopologyName, w)
	if err != nil {
		return Spec{}, err
	}
	var failures []*graph.FailureSet
	if f.FailureCount <= 1 {
		failures = graph.SingleFailureScenarios(tp.Graph)
	} else {
		failures, err = graph.SampleFailureScenarios(tp.Graph, f.FailureCount, f.Scenarios, f.Seed)
		if err != nil {
			return Spec{}, fmt.Errorf("eval: figure %s: %w", f.ID, err)
		}
	}
	return Spec{
		Topology:      tp,
		Failures:      failures,
		Discriminator: route.HopCount,
	}, nil
}

// RunFigure runs one Figure 2 panel end to end.
func RunFigure(f Figure) (*Experiment, error) {
	spec, err := BuildSpec(f)
	if err != nil {
		return nil, err
	}
	return Run(spec)
}

// FiguresConfig parameterises the Figure 2 report. Of the embedded Panel
// only Seed is consumed: non-zero, it replaces each panel's own sampling
// seed (a figure names its topology itself).
type FiguresConfig struct {
	Panel
	// ID is the one panel to regenerate ("2a".."2f"); empty runs all six
	// in order, a blank line after each.
	ID string
	// Scenarios overrides the multi-failure scenario count when positive.
	Scenarios int
	// UnitWeights is Figure.UnitWeights for every panel run.
	UnitWeights bool
}

// WriteFiguresReport runs the configured Figure 2 panels and renders
// each as its CCDF data table.
func WriteFiguresReport(w io.Writer, cfg FiguresConfig) error {
	figs := Figures()
	if cfg.ID != "" {
		f, err := FigureByID(cfg.ID)
		if err != nil {
			return err
		}
		figs = []Figure{f}
	}
	for _, f := range figs {
		if cfg.Scenarios > 0 {
			f.Scenarios = cfg.Scenarios
		}
		if cfg.Seed != 0 {
			f.Seed = cfg.Seed
		}
		f.UnitWeights = cfg.UnitWeights
		exp, err := RunFigure(f)
		if err != nil {
			return err
		}
		if err := WriteCCDF(w, exp, fmt.Sprintf("Figure %s: %s", f.ID, f.Title)); err != nil {
			return err
		}
		if cfg.ID == "" {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// StretchAxis returns the paper's x axis: 1, 3, 5, ..., 15 extended with
// the intermediate integers for smoother series.
func StretchAxis() []float64 {
	var xs []float64
	for x := 1.0; x <= 15; x++ {
		xs = append(xs, x)
	}
	return xs
}

// WriteCCDF renders the experiment as the figure's data table: one row per
// x value, one column per scheme, in the paper's legend order.
func WriteCCDF(w io.Writer, exp *Experiment, title string) error {
	xs := StretchAxis()
	schemes := append([]SchemeID(nil), schemesOf(exp)...)
	sort.Slice(schemes, func(i, j int) bool { return schemes[i] < schemes[j] })

	if _, err := fmt.Fprintf(w, "# %s\n", title); err != nil {
		return err
	}
	fmt.Fprintf(w, "# scenarios=%d\n", exp.Scenarios)
	fmt.Fprintf(w, "%-8s", "stretch")
	for _, s := range schemes {
		fmt.Fprintf(w, " %-26s", s)
	}
	fmt.Fprintln(w)
	curves := make(map[SchemeID][]float64, len(schemes))
	for _, s := range schemes {
		curves[s] = exp.SeriesFor(s).CCDF(xs)
	}
	for i, x := range xs {
		fmt.Fprintf(w, "%-8.0f", x)
		for _, s := range schemes {
			fmt.Fprintf(w, " %-26.4f", curves[s][i])
		}
		fmt.Fprintln(w)
	}
	for _, s := range schemes {
		sr := exp.SeriesFor(s)
		fmt.Fprintf(w, "# %-26s delivery=%.4f mean=%.3f max=%.2f affected=%d\n",
			s, sr.DeliveryRate(), sr.MeanStretch(), sr.MaxStretch(), sr.Affected)
	}
	return nil
}

func schemesOf(exp *Experiment) []SchemeID {
	out := make([]SchemeID, 0, len(exp.Series))
	for _, s := range exp.Series {
		out = append(out, s.Scheme)
	}
	return out
}
