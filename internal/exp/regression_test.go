package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tfrc/internal/netsim"
)

// The golden files were captured from the pre-ScenarioBuilder code (the
// hardcoded dumbbell and the monolithic RunScenario). These tests pin the
// refactor: migrating the dumbbell figures onto the declarative
// topology/scenario layer must not move a single output byte.

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("updating golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from pre-refactor golden %s:\n--- got\n%s--- want\n%s",
			name, got, want)
	}
}

func TestFig06ByteIdenticalToPreRefactor(t *testing.T) {
	var b bytes.Buffer
	runWith[*Fig06Result](t, "fig6", &Fig06Params{
		LinkMbps:    []float64{2, 4},
		TotalFlows:  []int{2, 4},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    20,
		MeasureTail: 10,
		Seed:        3,
	}, 1).Table(&b)
	compareGolden(t, "fig06_regression.golden", b.Bytes())
}

func TestFig09ByteIdenticalToPreRefactor(t *testing.T) {
	var b bytes.Buffer
	runWith[*Fig09Result](t, "fig9", &Fig09Params{
		Runs:       3,
		FlowsEach:  4,
		Duration:   25,
		Warmup:     10,
		Timescales: []float64{0.5, 1, 5},
		Seed:       2,
	}, 1).Table(&b)
	compareGolden(t, "fig09_regression.golden", b.Bytes())
}
