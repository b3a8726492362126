// Package releasecheck exercises the releasecheck analyzer: slices
// stored into a Result are copied out, not aliased.
package releasecheck

type monitor struct {
	samples []float64
}

type SweepResult struct {
	Samples []float64
	Rows    [][]float64
}

func harvestAliasing(m *monitor, res *SweepResult) {
	res.Samples = m.samples // want `slice stored into SweepResult field Samples may alias arena/monitor memory`
}

func harvestReslice(m *monitor, res *SweepResult) {
	res.Samples = m.samples[:10] // want `slice stored into SweepResult field Samples may alias arena/monitor memory`
}

func harvestCopyOut(m *monitor, res *SweepResult) {
	res.Samples = append([]float64(nil), m.samples...) // copy-out: fresh backing array
}

func harvestLocalOK(res *SweepResult) {
	vals := make([]float64, 0, 8)
	vals = append(vals, 1.0)
	res.Samples = vals // locally built: private by construction
}

func resultToResultOK(in *SweepResult, out *SweepResult) {
	out.Samples = in.Samples    // Result -> Result transfers ownership
	out.Samples = in.Rows[0]    // including through an index
	out.Samples = in.Samples[:] // and a reslice
}

func harvestAllowed(m *monitor, res *SweepResult) {
	res.Samples = m.samples //tfrclint:allow releasecheck the monitor is the caller's own, no arena behind it
}
