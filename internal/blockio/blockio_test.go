package blockio

import "testing"

func TestRequestValidate(t *testing.T) {
	good := Request{Op: OpWrite, LPA: 0, Pages: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Op: 9, LPA: 0, Pages: 1},
		{Op: OpRead, LPA: -1, Pages: 1},
		{Op: OpRead, LPA: 0, Pages: 0},
		{Op: OpTrim, LPA: 0, Pages: -5},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid request accepted: %v", i, r)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpTrim.String() != "trim" {
		t.Fatal("op names wrong")
	}
	if Op(77).String() == "" {
		t.Fatal("unknown op should still print")
	}
}
