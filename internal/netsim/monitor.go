package netsim

import "tfrc/internal/sim"

// FlowMonitor accumulates per-flow byte counts departing a link into
// fixed-width time bins — the substrate for the paper's R_τ(t) send-rate
// time series (Eq. 2) and the Figure 8 throughput traces. Flows are
// dense small integers, so per-flow state is struct-of-arrays: parallel
// counter columns indexed by flow ID plus one row-major bin slab with a
// shared per-flow stride. At a million flows the packet path reads
// exactly the column cells of one flow — no per-flow header structs, no
// pointer chasing, no allocation (growth lives in amortized helpers).
type FlowMonitor struct {
	binWidth float64
	start    float64
	stride   int       // per-flow bin capacity in the slab
	nflows   int       // rows in use; columns are sized to this
	bins     []float64 // nflows×stride row-major slab, zeroed per scenario
	arrivals []int32
	departs  []int32
	drops    []int32
	tap      Tap // prebuilt once; Tap() hands out the same closure
}

// NewFlowMonitor returns a monitor with the given bin width (seconds),
// with bin 0 starting at time start. Network.NewFlowMonitor is the
// arena-backed variant sweep cells should prefer.
func NewFlowMonitor(binWidth, start float64) *FlowMonitor {
	m := &FlowMonitor{}
	m.init(binWidth, start)
	return m
}

// NewFlowMonitor returns a flow monitor drawn from the scheduler's
// arena: a recycled monitor keeps its per-flow state table and every
// flow's bin capacity, so repeated sweep cells monitor their links
// without reallocating series storage.
func (nw *Network) NewFlowMonitor(binWidth, start float64) *FlowMonitor {
	m := sim.Next(&arenaOf(nw.sched).flowMons)
	m.init(binWidth, start)
	return m
}

// init (re)configures a monitor for a fresh scenario. Column and slab
// capacity is retained for reuse; rows are zeroed when (re)claimed by
// Register or first sight of a flow.
func (m *FlowMonitor) init(binWidth, start float64) {
	if binWidth <= 0 {
		panic("netsim: FlowMonitor bin width must be positive")
	}
	m.binWidth = binWidth
	m.start = start
	if m.tap == nil {
		m.tap = m.observe
	}
	m.nflows = 0
}

// Register preallocates flow state for flow IDs 0..flows-1 with capacity
// for nbins bins each in the shared slab. A recycled monitor usually
// reuses the previous scenario's slab in place. Unregistered flows
// still work — their row appears on first sight — but registration keeps
// the packet path allocation-free.
func (m *FlowMonitor) Register(flows, nbins int) {
	if nbins < 1 {
		nbins = 1
	}
	if nbins > m.stride {
		m.restride(nbins)
	}
	if flows > m.nflows {
		m.growFlows(flows)
	}
}

// growFlows extends the columns and slab to cover rows up to n-1,
// zeroing the newly claimed region (which may hold a previous
// scenario's data).
func (m *FlowMonitor) growFlows(n int) {
	if m.stride == 0 {
		m.stride = 1
	}
	if n > cap(m.arrivals) {
		// The three counter columns share one block, each clipped to
		// its own n so the next growth still starts here.
		cols := make([]int32, 3*n)
		arr, dep, dr := cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
		copy(arr, m.arrivals[:m.nflows])
		copy(dep, m.departs[:m.nflows])
		copy(dr, m.drops[:m.nflows])
		m.arrivals, m.departs, m.drops = arr, dep, dr
	} else {
		m.arrivals = m.arrivals[:n]
		m.departs = m.departs[:n]
		m.drops = m.drops[:n]
		for i := m.nflows; i < n; i++ {
			m.arrivals[i], m.departs[i], m.drops[i] = 0, 0, 0
		}
	}
	need := n * m.stride
	if need > cap(m.bins) {
		slab := make([]float64, need)
		copy(slab, m.bins[:m.nflows*m.stride])
		m.bins = slab
	} else {
		m.bins = m.bins[:need]
		tail := m.bins[m.nflows*m.stride:]
		for i := range tail {
			tail[i] = 0
		}
	}
	m.nflows = n
}

// restride rebuilds the slab with a larger per-flow bin capacity,
// relocating existing rows. Amortized: stride at least doubles.
func (m *FlowMonitor) restride(nbins int) {
	stride := m.stride * 2
	if stride < nbins {
		stride = nbins
	}
	if m.nflows == 0 {
		// No rows to relocate: keep the slab backing for reuse.
		m.stride = stride
		m.bins = m.bins[:0]
		return
	}
	slab := make([]float64, m.nflows*stride)
	for f := 0; f < m.nflows; f++ {
		copy(slab[f*stride:], m.bins[f*m.stride:(f+1)*m.stride])
	}
	m.bins = slab
	m.stride = stride
}

// observe is the per-packet tap: pure column arithmetic, no allocation.
func (m *FlowMonitor) observe(ev TapEvent, now float64, p *Packet) {
	idx := p.Flow
	if idx >= m.nflows {
		m.growFlows(idx + 1)
	}
	switch ev {
	case TapArrive:
		m.arrivals[idx]++
	case TapDrop:
		m.drops[idx]++
	case TapDepart:
		m.departs[idx]++
		if now < m.start {
			return
		}
		bin := int((now - m.start) / m.binWidth)
		if bin >= m.stride {
			m.restride(bin + 1)
		}
		m.bins[idx*m.stride+bin] += float64(p.Size)
	}
}

// Tap returns a link tap feeding this monitor.
func (m *FlowMonitor) Tap() Tap { return m.tap }

// BinWidth returns the monitor's bin width in seconds.
func (m *FlowMonitor) BinWidth() float64 { return m.binWidth }

// Start returns the time at which bin 0 starts.
func (m *FlowMonitor) Start() float64 { return m.start }

// Series returns the per-bin byte counts for a flow, padded to nbins.
func (m *FlowMonitor) Series(flow, nbins int) []float64 {
	return m.SeriesInto(make([]float64, nbins), flow)
}

// SeriesInto fills dst with the flow's per-bin byte counts (zero-padding
// the tail) and returns it — the allocation-free harvest for callers that
// slab their result series.
func (m *FlowMonitor) SeriesInto(dst []float64, flow int) []float64 {
	n := 0
	if flow < m.nflows {
		n = copy(dst, m.bins[flow*m.stride:(flow+1)*m.stride])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return dst
}

// TotalBytes returns all bytes the flow moved through the link since
// start.
func (m *FlowMonitor) TotalBytes(flow int) float64 {
	if flow >= m.nflows {
		return 0
	}
	var sum float64
	for _, b := range m.bins[flow*m.stride : (flow+1)*m.stride] {
		sum += b
	}
	return sum
}

// Stats aggregates arrivals, departures, and drops across all flows.
func (m *FlowMonitor) Stats() (arrivals, departs, drops int) {
	for i := 0; i < m.nflows; i++ {
		arrivals += int(m.arrivals[i])
		departs += int(m.departs[i])
		drops += int(m.drops[i])
	}
	return
}

// DropRate returns total drops divided by total arrivals at the link.
func (m *FlowMonitor) DropRate() float64 {
	arr, _, dr := m.Stats()
	if arr == 0 {
		return 0
	}
	return float64(dr) / float64(arr)
}

// QueueSample is one observation of a queue's occupancy.
type QueueSample struct {
	Time float64
	Len  int // packets
}

// QueueMonitor samples a queue's length at a fixed period — the substrate
// for the Figure 14 queue-dynamics traces.
type QueueMonitor struct {
	Samples []QueueSample

	nw     *Network
	q      Queue
	period float64
	end    float64
}

// qmonTickFn is the shared scheduler callback: the monitor rides in the
// arg slot, so sampling never builds a closure.
func qmonTickFn(x any) { x.(*QueueMonitor).tick() }

// NewQueueMonitor starts sampling q every period seconds until the
// scheduler stops running or end is reached (end ≤ 0 means forever). The
// ticks ride the arg-carrying event path, so steady-state sampling is
// allocation-free; with a known end the sample buffer is preallocated
// too. The monitor is drawn from the scheduler's arena and keeps its
// Samples backing across scenarios, the way FlowMonitor keeps its bins:
// Samples is valid until the scheduler's next Reset, and a caller that
// keeps it longer copies it.
func NewQueueMonitor(nw *Network, q Queue, period, end float64) *QueueMonitor {
	if period <= 0 {
		panic("netsim: QueueMonitor period must be positive")
	}
	m := sim.Next(&arenaOf(nw.sched).queueMons)
	samples := m.Samples[:0]
	if n := int(end/period) + 1; end > 0 && cap(samples) < n {
		samples = make([]QueueSample, 0, n)
	}
	*m = QueueMonitor{Samples: samples, nw: nw, q: q, period: period, end: end}
	nw.Scheduler().AfterArg(period, qmonTickFn, m)
	return m
}

func (m *QueueMonitor) tick() {
	now := m.nw.Now()
	if m.end > 0 && now > m.end {
		return
	}
	m.Samples = append(m.Samples, QueueSample{Time: now, Len: m.q.Len()})
	m.nw.Scheduler().AfterArg(m.period, qmonTickFn, m)
}

// Mean returns the average sampled queue length in packets.
func (m *QueueMonitor) Mean() float64 {
	if len(m.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range m.Samples {
		sum += float64(s.Len)
	}
	return sum / float64(len(m.Samples))
}

// Max returns the largest sampled queue length in packets.
func (m *QueueMonitor) Max() int {
	max := 0
	for _, s := range m.Samples {
		if s.Len > max {
			max = s.Len
		}
	}
	return max
}
