package experiment_test

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tfrc/experiment"
	"tfrc/scenario"
)

// readGolden loads a pre-refactor golden from internal/exp/testdata: the
// registry path must reproduce those tables byte-for-byte.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "internal", "exp", "testdata", name))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	return b
}

func runTable(t *testing.T, name string, p experiment.Params) []byte {
	t.Helper()
	d, err := experiment.Get(name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	res, err := experiment.Run(d, p)
	if err != nil {
		t.Fatalf("Run(%q): %v", name, err)
	}
	var b bytes.Buffer
	res.Table(&b)
	return b.Bytes()
}

func TestFig06GoldenViaRegistry(t *testing.T) {
	d, err := experiment.Get("fig6")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig06Params)
	*p = experiment.Fig06Params{
		LinkMbps:    []float64{2, 4},
		TotalFlows:  []int{2, 4},
		Queues:      []scenario.QueueKind{scenario.QueueDropTail, scenario.QueueRED},
		Duration:    20,
		MeasureTail: 10,
		Seed:        3,
	}
	got := runTable(t, "fig6", p)
	if want := readGolden(t, "fig06_regression.golden"); !bytes.Equal(got, want) {
		t.Fatalf("registry fig6 output differs from golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRunWithOptions: the golden grid again through RunWith, on four
// workers, and under a context cancelled beforehand, which must start no
// cell and say so.
func TestRunWithOptions(t *testing.T) {
	d, err := experiment.Get("fig6")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig06Params)
	*p = experiment.Fig06Params{
		LinkMbps:    []float64{2, 4},
		TotalFlows:  []int{2, 4},
		Queues:      []scenario.QueueKind{scenario.QueueDropTail, scenario.QueueRED},
		Duration:    20,
		MeasureTail: 10,
		Seed:        3,
	}
	res, err := experiment.RunWith(d, p, experiment.RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	res.Table(&got)
	if want := readGolden(t, "fig06_regression.golden"); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fig6 on 4 workers differs from golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = experiment.RunWith(d, p, experiment.RunOptions{Workers: 4, Ctx: ctx})
	if !errors.Is(err, experiment.ErrInterrupted) {
		t.Fatalf("cancelled run: err = %v, want ErrInterrupted", err)
	}
	for _, c := range res.(*experiment.Fig06Result).Cells {
		if c.Utilization != 0 {
			t.Fatalf("cancelled run computed a cell: %+v", c)
		}
	}
}

func TestFig09GoldenViaRegistry(t *testing.T) {
	d, err := experiment.Get("fig9")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig09Params)
	*p = experiment.Fig09Params{
		Runs:       3,
		FlowsEach:  4,
		Duration:   25,
		Warmup:     10,
		Timescales: []float64{0.5, 1, 5},
		Seed:       2,
	}
	got := runTable(t, "fig9", p)
	if want := readGolden(t, "fig09_regression.golden"); !bytes.Equal(got, want) {
		t.Fatalf("registry fig9 output differs from golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestParamsJSONRoundTrip: every registered parameter set must survive
// params → JSON → params unchanged, for the defaults and every preset,
// and its type must hold nothing JSON cannot carry back, set or not.
func TestParamsJSONRoundTrip(t *testing.T) {
	for _, d := range experiment.List() {
		if why := jsonRoundTripIssue(reflect.TypeOf(d.Params()), map[reflect.Type]bool{}); why != "" {
			t.Errorf("%s: %T does not JSON-round-trip: %s; tag the field json:\"-\" or give it a serializable type",
				d.Name, d.Params(), why)
		}
		sets := map[string]experiment.Params{"default": d.Params()}
		for name := range d.Presets {
			p, err := d.PresetParams(name)
			if err != nil {
				t.Fatalf("%s preset %s: %v", d.Name, name, err)
			}
			sets[name] = p
		}
		for preset, p := range sets {
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", d.Name, preset, err)
			}
			fresh := d.Params()
			if err := json.Unmarshal(data, fresh); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", d.Name, preset, err)
			}
			// The overlay target starts from defaults, so compare
			// against the preset decoded over defaults a second time —
			// fields the preset leaves at defaults must agree too.
			if !reflect.DeepEqual(p, fresh) {
				t.Errorf("%s/%s: params changed across JSON round-trip:\n got %+v\nwant %+v",
					d.Name, preset, fresh, p)
			}
		}
	}
}

var (
	jsonMarshaler   = reflect.TypeFor[json.Marshaler]()
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textMarshaler   = reflect.TypeFor[encoding.TextMarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// jsonRoundTripIssue returns "" if a value of type t comes back from
// encoding/json as it went in, or why it cannot: a func, chan, complex,
// unsafe.Pointer or interface (whose dynamic type is lost) in an
// exported field not tagged json:"-", a map key JSON cannot spell, or a
// marshaler without its unmarshaler or the other way round.
func jsonRoundTripIssue(t reflect.Type, seen map[reflect.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	pt := reflect.PointerTo(t)
	switch mj, uj, mt, ut := pt.Implements(jsonMarshaler), pt.Implements(jsonUnmarshaler),
		pt.Implements(textMarshaler), pt.Implements(textUnmarshaler); {
	case mj && uj, mt && ut:
		return ""
	case mj || mt:
		return t.String() + " marshals but has no matching unmarshal method"
	case uj || ut:
		return t.String() + " unmarshals but has no matching marshal method"
	}
	switch t.Kind() {
	case reflect.Func, reflect.Chan, reflect.Complex64, reflect.Complex128, reflect.UnsafePointer, reflect.Interface:
		return t.Kind().String() + " " + t.String()
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return jsonRoundTripIssue(t.Elem(), seen)
	case reflect.Map:
		k := t.Key()
		switch pk := reflect.PointerTo(k); {
		case k.Kind() == reflect.String, k.Kind() >= reflect.Int && k.Kind() <= reflect.Uintptr,
			pk.Implements(textMarshaler) && pk.Implements(textUnmarshaler):
		default:
			return "map key " + k.String()
		}
		return jsonRoundTripIssue(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); !f.IsExported() || name == "-" {
				continue
			}
			if why := jsonRoundTripIssue(f.Type, seen); why != "" {
				return "field " + f.Name + ": " + why
			}
		}
	}
	return ""
}

// TestEnumUnmarshalCaseInsensitive: hand-written params files may spell
// the enums in any case.
func TestEnumUnmarshalCaseInsensitive(t *testing.T) {
	var p experiment.Fig06Params
	if err := json.Unmarshal([]byte(`{"Queues": ["droptail", "Red", "DROPTAIL"]}`), &p); err != nil {
		t.Fatalf("case-insensitive queue names rejected: %v", err)
	}
	want := []scenario.QueueKind{scenario.QueueDropTail, scenario.QueueRED, scenario.QueueDropTail}
	if !reflect.DeepEqual(p.Queues, want) {
		t.Fatalf("Queues = %v, want %v", p.Queues, want)
	}
	if err := json.Unmarshal([]byte(`{"Queues": ["fifo"]}`), &p); err == nil {
		t.Fatal("unknown queue kind accepted")
	}
}

// TestSpecRunRejectsBadBinWidth: the public dumbbell preset must error,
// not panic, on malformed monitor parameters.
func TestSpecRunRejectsBadBinWidth(t *testing.T) {
	_, err := scenario.Run(scenario.Spec{
		NTCP: 1, NTFRC: 1, BottleneckBW: 2e6, Duration: 5, BinWidth: -1,
	})
	if err == nil {
		t.Fatal("negative BinWidth accepted")
	}
}

// TestRunDeterministicAfterJSONRoundTrip: running round-tripped params
// must reproduce the original run byte-for-byte.
func TestRunDeterministicAfterJSONRoundTrip(t *testing.T) {
	d, err := experiment.Get("fig3")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig03Params)
	p.BufferSizes = []int{4, 16}
	p.Duration, p.Warmup = 30, 10

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	rt := d.Params()
	if err := json.Unmarshal(data, rt); err != nil {
		t.Fatal(err)
	}
	a := runTable(t, "fig3", p)
	b := runTable(t, "fig3", rt)
	if !bytes.Equal(a, b) {
		t.Fatalf("round-tripped params produced different output:\n--- direct\n%s--- round-trip\n%s", a, b)
	}
}

// TestResultJSONStable: the JSON envelope is valid, carries the three
// envelope keys, and marshals identically on repeated encodings.
func TestResultJSONStable(t *testing.T) {
	d, err := experiment.Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig05Params)
	p.PLoss = []float64{0.01, 0.05}
	res, err := experiment.Run(d, p)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := experiment.WriteJSON(&a, d.Name, p, res); err != nil {
		t.Fatal(err)
	}
	if err := experiment.WriteJSON(&b, d.Name, p, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated JSON encodings differ")
	}
	var env struct {
		Schema     string          `json:"schema"`
		Experiment string          `json:"experiment"`
		Params     json.RawMessage `json:"params"`
		Result     json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(a.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.Schema != experiment.RecordSchema {
		t.Fatalf("envelope schema %q, want %q", env.Schema, experiment.RecordSchema)
	}
	if env.Experiment != "fig5" || len(env.Params) == 0 || len(env.Result) == 0 {
		t.Fatalf("envelope incomplete: %s", a.String())
	}

	// The schema key must lead the envelope so downstream tooling can
	// gate on it with a streaming decoder before touching the payload.
	if !strings.HasPrefix(a.String(), "{\n  \"schema\": \""+experiment.RecordSchema+"\"") {
		t.Fatalf("schema is not the first envelope key:\n%s", a.String()[:min(120, a.Len())])
	}

	// A Record round trip through JSON preserves the schema verbatim.
	// Params/Result are non-empty interfaces, so decoding needs concrete
	// values seeded in.
	rec := experiment.Record{Params: d.Params(), Result: &experiment.Fig05Result{}}
	if err := json.Unmarshal(a.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != experiment.RecordSchema || rec.Experiment != "fig5" || rec.Interrupted {
		t.Fatalf("record round trip mutated the envelope: %+v", rec)
	}
}

// TestPartialJSONCarriesSchema: interrupted-run envelopes carry the
// same schema plus the interrupted marker.
func TestPartialJSONCarriesSchema(t *testing.T) {
	d, err := experiment.Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiment.WritePartialJSON(&buf, d.Name, d.Params(), nil); err != nil {
		t.Fatal(err)
	}
	rec := experiment.Record{Params: d.Params()} // result stays null
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != experiment.RecordSchema || !rec.Interrupted {
		t.Fatalf("partial record envelope wrong: %+v", rec)
	}
}

// TestResultJSONForSimResult: a packet-level experiment's result (not
// just the analytic fig5) must also marshal.
func TestResultJSONForSimResult(t *testing.T) {
	d, err := experiment.Get("fig19")
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(d, d.Params())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal fig19 result: %v", err)
	}
	if !strings.Contains(string(data), "Points") {
		t.Fatalf("fig19 result JSON missing Points: %s", data[:min(200, len(data))])
	}
}

func TestGetAliasesAndSuggestions(t *testing.T) {
	for alias, want := range map[string]string{
		"6": "fig6", "fig10": "fig9", "10": "fig9", "12": "fig11",
		"17": "fig16", "ccfair": "ccfair",
	} {
		d, err := experiment.Get(alias)
		if err != nil {
			t.Fatalf("Get(%q): %v", alias, err)
		}
		if d.Name != want {
			t.Errorf("Get(%q).Name = %q, want %q", alias, d.Name, want)
		}
	}
	_, err := experiment.Get("manyflws")
	if err == nil || !strings.Contains(err.Error(), `"manyflows"`) {
		t.Errorf("Get(manyflws) error should suggest manyflows, got %v", err)
	}
	if _, err := experiment.Get("fig99"); err == nil {
		t.Error("Get(fig99) should fail")
	}
}

func TestListCoversAllFiguresInOrder(t *testing.T) {
	names := []string{}
	for _, d := range experiment.List() {
		names = append(names, d.Name)
	}
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig14", "fig15", "fig16", "fig18", "fig19", "fig20",
		"fig21", "ccfair", "chaos", "faultphase", "manyflows",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List() order = %v, want %v", names, want)
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	d, err := experiment.Get("fig6")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*experiment.Fig06Params)
	p.Duration = -1
	if _, err := experiment.Run(d, p); err == nil {
		t.Fatal("Run accepted a negative duration")
	}
}

func TestRunRejectsForeignParamsType(t *testing.T) {
	d, err := experiment.Get("fig6")
	if err != nil {
		t.Fatal(err)
	}
	other, err := experiment.Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Run(d, other.Params()); err == nil {
		t.Fatal("Run accepted fig5 params for fig6")
	}
}

// TestSeedKnobs pins which experiments expose the -seed/-seeds knobs:
// those whose parameters take the overlay the CLI makes of the flag,
// {"Seed": n} or {"Seeds": n}, decoded as strictly as a -params file.
func TestSeedKnobs(t *testing.T) {
	takes := func(d experiment.Descriptor, field string) bool {
		dec := json.NewDecoder(strings.NewReader(`{"` + field + `": 2}`))
		dec.DisallowUnknownFields()
		return dec.Decode(d.Params()) == nil
	}
	seeded := map[string]bool{}
	multi := map[string]bool{}
	for _, d := range experiment.List() {
		if takes(d, "Seed") {
			seeded[d.Name] = true
		}
		if takes(d, "Seeds") {
			multi[d.Name] = true
		}
	}
	for _, name := range []string{"fig6", "fig8", "fig9", "fig11", "fig14", "fig15", "fig16", "fig18", "ccfair", "faultphase"} {
		if !seeded[name] {
			t.Errorf("%s should support -seed", name)
		}
	}
	// Exactly the list in the README's and cmd/tfrcsim's -seeds text.
	wantMulti := []string{"fig6", "fig8", "fig14", "fig15", "faultphase", "ccfair"}
	for _, name := range wantMulti {
		if !multi[name] {
			t.Errorf("%s should support -seeds", name)
		}
	}
	if len(multi) != len(wantMulti) {
		t.Errorf("-seeds is supported by %v; the documented list is %v", multi, wantMulti)
	}
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig19", "fig20", "fig21"} {
		if seeded[name] {
			t.Errorf("%s is deterministic and should not claim -seed support", name)
		}
	}
}

// TestRegisterUserExperiment exercises the public extension point,
// Define, with a scenario-package experiment, end to end.
func TestRegisterUserExperiment(t *testing.T) {
	experiment.Define(experiment.Spec[userDumbbellParams, float64, *userDumbbellResult]{
		Name:        "user-dumbbell",
		Description: "test-only user experiment",
		Default:     func() userDumbbellParams { return userDumbbellParams{Flows: 2, Duration: 10} },
		Cells:       func(*userDumbbellParams) int { return 1 },
		Cell: func(_ *scenario.Scheduler, p *userDumbbellParams, _ int) float64 {
			res, err := scenario.Run(scenario.Spec{
				NTCP: p.Flows, NTFRC: p.Flows,
				BottleneckBW: 2e6, Duration: p.Duration, Seed: 1,
			})
			if err != nil {
				panic(err)
			}
			return res.Utilization
		},
		Reduce: func(_ *userDumbbellParams, util []float64) *userDumbbellResult {
			return &userDumbbellResult{Util: util[0]}
		},
	})
	d, err := experiment.Get("user-dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(d, d.Params())
	if err != nil {
		t.Fatal(err)
	}
	if u := res.(*userDumbbellResult).Util; u <= 0 || u > 1.01 {
		t.Fatalf("implausible utilization %v", u)
	}
}

// TestUserCellBuildsOnItsScheduler defines an experiment whose cells
// build their scenario on the *scenario.Scheduler they are handed,
// through scenario.NewTopology and scenario.NewBuilder, and never rewind
// it. Run at one worker and at two, every cell must start at time zero
// and read what it reads built on a fresh scheduler.
func TestUserCellBuildsOnItsScheduler(t *testing.T) {
	cell := func(sched *scenario.Scheduler, p *userLinkParams, i int) userLinkCell {
		if now := sched.Now(); now != 0 {
			t.Errorf("cell %d handed a scheduler at t = %v", i, now)
		}
		topo := scenario.NewTopology(sched, sched.NewRand(int64(i)))
		topo.Link("src", "dst", scenario.LinkSpec{
			Bandwidth: p.Mbps[i] * 1e6, Delay: 0.02,
			Queue: scenario.QueueDropTail, QueueLimit: 30,
		})
		b := scenario.NewBuilder(topo)
		b.MonitorLink("src->dst", 0.5, 1)
		b.AddTFRC("src", "dst", scenario.DefaultTFRCConfig(), 0)
		b.AddTCP("src", "dst", scenario.TCPConfig{Variant: scenario.TCPSack}, 0.1)
		res := b.Run(p.Duration)
		b.Release()
		var c userLinkCell
		for _, v := range res.TCPSeries[0] {
			c.TCP += v
		}
		for _, v := range res.TFRCSeries[0] {
			c.TFRC += v
		}
		return c
	}
	experiment.Define(experiment.Spec[userLinkParams, userLinkCell, *userLinkResult]{
		Name:        "user-link",
		Description: "test-only user experiment built on the handed scheduler",
		Default:     func() userLinkParams { return userLinkParams{Mbps: []float64{1, 2, 4, 1.5, 3}, Duration: 6} },
		Cells:       func(p *userLinkParams) int { return len(p.Mbps) },
		Cell:        cell,
		Reduce: func(_ *userLinkParams, cells []userLinkCell) *userLinkResult {
			return &userLinkResult{Cells: cells}
		},
	})
	d, err := experiment.Get("user-link")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params().(*userLinkParams)
	for _, workers := range []int{1, 2} {
		res, err := experiment.RunWith(d, p, experiment.RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range res.(*userLinkResult).Cells {
			if want := cell(scenario.NewScheduler(), p, i); got != want || got.TCP == 0 || got.TFRC == 0 {
				t.Errorf("%d workers, cell %d: %+v, want %+v as on a fresh scheduler, both flows moving bytes", workers, i, got, want)
			}
		}
	}
}

type userLinkParams struct {
	Mbps     []float64
	Duration float64
}

func (p *userLinkParams) Validate() error { return nil }

type userLinkCell struct{ TCP, TFRC float64 }

type userLinkResult struct{ Cells []userLinkCell }

func (r *userLinkResult) Table(w io.Writer) {
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%.0f\t%.0f\n", c.TCP, c.TFRC)
	}
}

type userDumbbellParams struct {
	Flows    int
	Duration float64
}

func (p *userDumbbellParams) Validate() error { return nil }

type userDumbbellResult struct{ Util float64 }

func (r *userDumbbellResult) Table(w io.Writer) {
	fmt.Fprintf(w, "util\t%.3f\n", r.Util)
}
