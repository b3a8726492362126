package experiment

import (
	"tfrc/internal/exp"
	"tfrc/internal/faults"
)

// Parameter and result structs of the built-in experiments, aliased so
// registry users can type-assert Get(...).Params() and Run(...) values
// without importing internal packages.
//
//	d, _ := experiment.Get("fig6")
//	p := d.Params().(*experiment.Fig06Params)
//	p.Duration = 30
//	res, _ := experiment.Run(d, p)
//	cells := res.(*experiment.Fig06Result).Cells
type (
	// Fig02Params/Fig02Result: Average Loss Interval dynamics.
	Fig02Params = exp.Fig02Params
	Fig02Result = exp.Fig02Result
	Fig02Point  = exp.Fig02Point
	// Fig03Params/Fig03Result: buffer-size oscillation sweep (figs 3, 4).
	Fig03Params = exp.Fig03Params
	Fig03Result = exp.Fig03Result
	Fig03Curve  = exp.Fig03Curve
	// Fig05Params/Fig05Result: loss-event fraction fixed point.
	Fig05Params = exp.Fig05Params
	Fig05Result = exp.Fig05Result
	// Fig06Params/Fig06Result: the TCP-fairness grid; Fig06Cell is one
	// grid cell (also the element of Figure 7's scatter).
	Fig06Params = exp.Fig06Params
	Fig06Result = exp.Fig06Result
	Fig06Cell   = exp.Fig06Cell
	// Fig07Params/Fig07Result: per-flow normalized throughput column.
	Fig07Params = exp.Fig07Params
	Fig07Result = exp.Fig07Result
	// Fig08GridParams/Fig08GridResult: throughput traces per queue kind.
	Fig08GridParams = exp.Fig08GridParams
	Fig08GridResult = exp.Fig08GridResult
	Fig08Result     = exp.Fig08Result
	// Fig09Params/Fig09Result: equivalence ratio and CoV vs timescale.
	Fig09Params = exp.Fig09Params
	Fig09Result = exp.Fig09Result
	// MeanCI is a mean with its 90% confidence half-width.
	MeanCI = exp.MeanCI
	// Fig11Params/Fig11Result: ON/OFF background sweep (figs 11-13).
	Fig11Params = exp.Fig11Params
	Fig11Result = exp.Fig11Result
	Fig11Row    = exp.Fig11Row
	// Fig14Params/Fig14Result: queue dynamics, TCP vs TFRC sides.
	Fig14Params = exp.Fig14Params
	Fig14Result = exp.Fig14Result
	Fig14Side   = exp.Fig14Side
	// Fig15Params/Fig15Result: transcontinental path traces.
	Fig15Params = exp.Fig15Params
	Fig15Result = exp.Fig15Result
	// Fig16Params/Fig16Result: per-path equivalence study (figs 16, 17).
	Fig16Params = exp.Fig16Params
	Fig16Result = exp.Fig16Result
	Fig16Row    = exp.Fig16Row
	// Fig18Params/Fig18Result: loss-predictor error bars.
	Fig18Params = exp.Fig18Params
	Fig18Result = exp.Fig18Result
	Fig18Point  = exp.Fig18Point
	// Fig19Params/Fig19Result: rate response traces (figs 19, 20).
	Fig19Params = exp.Fig19Params
	Fig19Result = exp.Fig19Result
	Fig19Point  = exp.Fig19Point
	// Fig21Params/Fig21Result: round-trips to halve the rate.
	Fig21Params = exp.Fig21Params
	Fig21Result = exp.Fig21Result
	Fig21Row    = exp.Fig21Row
	// ParkingLotParams/ParkingLotResult: multi-bottleneck fairness grid.
	ParkingLotParams = exp.ParkingLotParams
	ParkingLotResult = exp.ParkingLotResult
	ParkingLotCell   = exp.ParkingLotCell
	// CCFairParams/CCFairResult: congestion-control zoo head-to-head
	// fairness grid (N flows of protocol A vs M of protocol B over RTT
	// and bandwidth); CCFairCell is one grid point.
	CCFairParams = exp.CCFairParams
	CCFairResult = exp.CCFairResult
	CCFairCell   = exp.CCFairCell
	// FaultPhaseParams/FaultPhaseResult: flows riding out a fault
	// program on the bottleneck (a bandwidth step, a feedback blackout,
	// link flaps); FaultPhase is one phase's summary.
	FaultPhaseParams = exp.FaultPhaseParams
	FaultPhaseResult = exp.FaultPhaseResult
	FaultPhase       = exp.FaultPhase
	// ManyFlowsParams/ManyFlowsResult: million-flow scaling ladder;
	// ManyFlowsDecade is one flow-count rung.
	ManyFlowsParams = exp.ManyFlowsParams
	ManyFlowsResult = exp.ManyFlowsResult
	ManyFlowsDecade = exp.ManyFlowsDecade
	// ChaosParams/ChaosResult: seeded randomized fault soak; ChaosCell
	// is one cell's verdict.
	ChaosParams = exp.ChaosParams
	ChaosResult = exp.ChaosResult
	ChaosCell   = exp.ChaosCell
	// Fault-injection vocabulary (internal/faults): a FaultSchedule is a
	// JSON-serializable fault program; RatePoint is one allowed-rate
	// sample.
	Fault         = faults.Fault
	FaultKind     = faults.Kind
	FaultSchedule = faults.Schedule
	RatePoint     = faults.RatePoint
)
