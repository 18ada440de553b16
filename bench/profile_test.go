package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// msg is a minimal protobuf writer for hand-building a profile.
type msg struct{ bytes.Buffer }

func (m *msg) varint(num int, v uint64) {
	m.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	m.Write(binary.AppendUvarint(nil, v))
}

func (m *msg) bytes(num int, data []byte) {
	m.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	m.Write(binary.AppendUvarint(nil, uint64(len(data))))
	m.Write(data)
}

// profileBuilder interns strings and functions and emits one location per
// frame group (several functions in a group model inlining, leaf first).
type profileBuilder struct {
	msg
	strs  []string
	funcs map[string]uint64
	nLoc  uint64
}

func (b *profileBuilder) function(name string) uint64 {
	if id, ok := b.funcs[name]; ok {
		return id
	}
	b.strs = append(b.strs, name)
	id := uint64(len(b.funcs) + 1)
	b.funcs[name] = id
	var f msg
	f.varint(1, id)
	f.varint(2, uint64(len(b.strs)-1))
	b.bytes(5, f.Bytes())
	return id
}

func (b *profileBuilder) location(inlined ...string) uint64 {
	b.nLoc++
	var l msg
	l.varint(1, b.nLoc)
	for _, name := range inlined {
		var line msg
		line.varint(1, b.function(name))
		line.varint(2, 42)
		l.bytes(4, line.Bytes())
	}
	b.bytes(4, l.Bytes())
	return b.nLoc
}

// sample adds a stack (leaf first; each element one location's inlined
// group) that was hit count times.
func (b *profileBuilder) sample(packed bool, count uint64, stack ...[]string) {
	var s msg
	var ids []byte
	for _, group := range stack {
		id := b.location(group...)
		if packed {
			ids = binary.AppendUvarint(ids, id)
		} else {
			s.varint(1, id)
		}
	}
	if packed {
		s.bytes(1, ids)
	}
	s.bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, count), count*10_000_000))
	b.bytes(2, s.Bytes())
}

func (b *profileBuilder) gzipped(t *testing.T) []byte {
	t.Helper()
	for _, s := range b.strs {
		b.bytes(6, []byte(s))
	}
	b.varint(12, 10_000_000)
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestDecodeAndAttribute(t *testing.T) {
	b := &profileBuilder{strs: []string{""}, funcs: map[string]uint64{}}
	root := []string{"main.runCells", "main.childMain"} // runCells inlined into childMain
	// vth sampling inlined into the chip's PLock: the inlined leaf wins.
	b.sample(true, 3,
		[]string{"repro/internal/nand/vth.(*Model).SampleCellVth", "repro/internal/nand.(*Chip).PLock"},
		[]string{"repro/internal/ftl.(*FTL).Trim"}, root)
	// runtime work is charged to the layer that caused it.
	b.sample(false, 5,
		[]string{"runtime.memmove"},
		[]string{"repro/internal/workload.(*Generator).deleteOne"}, root)
	// a generic function whose type argument names another package.
	b.sample(true, 2,
		[]string{"runtime.mallocgc"},
		[]string{"repro/internal/parallel.Map[go.shape.struct { repro/internal/experiment.Run }]"}, root)
	// no repo frame at all: a GC worker.
	b.sample(true, 7, []string{"runtime.scanobject"}, []string{"runtime.gcBgMarkWorker"})
	// only the harness's own frames.
	b.sample(false, 1, []string{"runtime.mallocgc"}, []string{"encoding/json.Marshal"}, root)
	// a package this benchmark has no named layer for.
	b.sample(true, 4, []string{"repro/internal/core.Open"}, root)

	p, err := decodeProfile(b.gzipped(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.PeriodNs != 10_000_000 || len(p.Samples) != 6 {
		t.Fatalf("period %d, %d samples", p.PeriodNs, len(p.Samples))
	}
	if got := p.Samples[0].Stack; len(got) != 5 || got[0] != "repro/internal/nand/vth.(*Model).SampleCellVth" || got[4] != "main.childMain" {
		t.Fatalf("inlined stack not expanded leaf first: %q", got)
	}
	want := map[string]int64{
		"nand-vth": 3, "workload": 5, "parallel": 2, keyBg: 7, keyHarness: 1, "core": 4,
		keyMemmove: 5, keyMalloc: 3, keyTotal: 22,
	}
	got := attribute(p)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: got %d samples, want %d", k, got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("unexpected keys: %v", got)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("plain bytes accepted")
	}
	b := &profileBuilder{strs: []string{""}, funcs: map[string]uint64{}}
	b.sample(true, 1, []string{"runtime.memmove"})
	b.Write([]byte{0x12, 0x7f}) // a sample claiming 127 bytes that are not there
	if _, err := decodeProfile(b.gzipped(t)); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/ftl.(*FTL).relocatePage":            "ftl",
		"repro/internal/nand/vth.(*Model).Program":          "nand-vth",
		"repro/internal/experiment.Figure14Parallel.func1":  "experiment",
		"repro/internal/parallel.Map[go.shape.int,a/b.C].f": "parallel",
		"runtime.mallocgc":     "",
		"main.runCells":        "",
		"repro/bench.runCells": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
