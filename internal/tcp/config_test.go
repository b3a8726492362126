package tcp

import (
	"encoding/json"
	"testing"

	"tfrc/internal/cc"
)

// TestVariantTextRoundTrip: every variant survives the text codec, the
// codec is case-insensitive, and unknown names fail.
func TestVariantTextRoundTrip(t *testing.T) {
	for _, v := range []Variant{Tahoe, Reno, NewReno, Sack} {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", v, err)
		}
		var back Variant
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != v {
			t.Fatalf("round trip %v -> %q -> %v", v, text, back)
		}
	}
	var v Variant
	if err := v.UnmarshalText([]byte("SACK")); err != nil || v != Sack {
		t.Fatalf("case-insensitive decode: got %v, %v", v, err)
	}
	if err := v.UnmarshalText([]byte("cubic")); err == nil {
		t.Fatal("unknown variant decoded without error")
	}
}

// TestConfigJSONRoundTrip: a Config — including the embedded cc.Config —
// survives the JSON path parameter files use, with both enums as names.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{
		Variant:    Sack,
		CC:         cc.Config{Name: "vegas"},
		PacketSize: 1500,
	}
	blob, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
	if back.Variant != Sack || back.CC.Name != "vegas" || back.PacketSize != 1500 {
		t.Fatalf("round trip lost fields: %+v (json %s)", back, blob)
	}
	// The zero CC config is invisible on the wire: pre-cc parameter
	// files keep decoding to the same behavior.
	blob, err = json.Marshal(&Config{Variant: Reno})
	if err != nil {
		t.Fatalf("marshal zero-CC: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("unmarshal into map: %v", err)
	}
	if _, present := m["cc"]; present {
		t.Fatalf("zero cc.Config should marshal away, got %s", blob)
	}
}
