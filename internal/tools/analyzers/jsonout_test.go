package analyzers

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func TestEncodeJSON(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "a/b.go", Line: 7, Column: 3},
			Analyzer: "poolown",
			Message:  "slice used after Put",
		},
		{
			Pos:      token.Position{Filename: "c.go", Line: 1, Column: 1},
			Analyzer: "lockio",
			Message: `message with "quotes" and a
newline`,
		},
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var got []JSONFinding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2", len(got))
	}
	want := JSONFinding{File: "a/b.go", Line: 7, Col: 3, Analyzer: "poolown", Message: "slice used after Put"}
	if got[0] != want {
		t.Errorf("first finding = %+v, want %+v", got[0], want)
	}
	if got[1].Message != diags[1].Message {
		t.Errorf("quoted/newline message did not round-trip: %q", got[1].Message)
	}
}

// TestEncodeJSONEmpty: consumers always receive an array, never null —
// the CI jq step iterates without a null guard.
func TestEncodeJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := string(bytes.TrimSpace(buf.Bytes())); s != "[]" {
		t.Fatalf("empty encode = %q, want []", s)
	}
}
