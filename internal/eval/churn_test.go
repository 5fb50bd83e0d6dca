package eval

import (
	"bytes"
	"strings"
	"testing"

	"recycle/internal/topo"
)

func TestMeasureChurn(t *testing.T) {
	tp, err := topo.ByName("ring:32")
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureChurn(tp, ChurnConfig{Panel: Panel{Seed: 1}, Edits: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Edits != 6 || c.Nodes != 32 {
		t.Fatalf("churn meta wrong: %+v", c)
	}
	if c.FullMedian <= 0 || c.DeltaMedian <= 0 {
		t.Fatalf("unmeasured latencies: %+v", c)
	}
	if c.DirtyMean <= 0 {
		t.Fatalf("weight edits touched no destinations: %+v", c)
	}
	if c.StructEdits != 6 || c.StructFullMedian <= 0 || c.StructDeltaMedian <= 0 {
		t.Fatalf("structural edits unmeasured: %+v", c)
	}
	// The hard speed claim (≥5× on ring:64) is pinned by
	// TestDeltaRecompileSpeedup in internal/dataplane; here we only
	// require the delta path not to be slower than full recompilation.
	if c.Speedup < 1 {
		t.Fatalf("delta slower than full: %+v", c)
	}
}

func TestWriteChurnReport(t *testing.T) {
	var buf bytes.Buffer
	cfg := ChurnConfig{Panel: Panel{Topologies: []string{"abilene", "ring:24"}, Seed: 2}, Edits: 4}
	if err := WriteChurnReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"topology", "abilene", "ring:24", "speedup", "s.delta"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if err := WriteChurnReport(&buf, ChurnConfig{Panel: Panel{Topologies: []string{"nosuch"}}}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
