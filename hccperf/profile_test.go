package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"hccsim/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hccsim/internal/sim.(*Engine).Run":             "sim",
		"hccsim/internal/sim/eventq.(*Queue[...]).Push": "sim",
		"hccsim/internal/trace.overlapWith":             "trace",
		"hccsim/internal/serve.schedIterate":            "serve",
		"runtime.chansend1":                             "",
		"main.runStage.func1":                           "",
		"hccsim.Run":                                    "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, body []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(body)))
	p.b = append(p.b, body...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// testProfile builds a gzipped profile. funcs are named by string-table
// index (function id = index); each location lists its function ids,
// innermost inlined frame first; each sample lists location ids leaf first.
func testProfile(t *testing.T, names []string, locs map[uint64][]uint64, samples [][]uint64, counts []uint64, packedSamples bool) []byte {
	t.Helper()
	var prof pb
	for _, n := range append([]string{""}, names...) {
		prof.bytes(6, []byte(n))
	}
	for id := range names {
		var f pb
		f.varint(1, uint64(id+1)).varint(2, uint64(id+1))
		prof.bytes(5, f.b)
	}
	for id, fns := range locs {
		var l pb
		l.varint(1, id)
		for _, fn := range fns {
			var line pb
			line.varint(1, fn).varint(2, 7)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for i, stack := range samples {
		var s pb
		if packedSamples {
			s.packed(1, stack...)
			s.packed(2, counts[i], counts[i]*10_000_000)
		} else {
			for _, id := range stack {
				s.varint(1, id)
			}
			s.varint(2, counts[i]).varint(2, counts[i]*10_000_000)
		}
		prof.bytes(2, s.b)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSamplesInnermostSimulatorFrame(t *testing.T) {
	names := []string{
		"runtime.chansend1",                   // 1
		"hccsim/internal/sim.(*Proc).Sleep",   // 2
		"hccsim/internal/nn.TrainSimulate",    // 3
		"main.runStage.func1",                 // 4
		"hccsim/internal/sim/eventq.push",     // 5
		"hccsim/internal/trace.overlapWith",   // 6
		"runtime.mallocgc",                    // 7
		"hccsim/internal/batch.(*Pool).Run",   // 8
		"encoding/json.Marshal",               // 9
		"hccsim/internal/figures.GenerateAll", // 10
	}
	locs := map[uint64][]uint64{
		1: {1}, 2: {2}, 3: {3}, 4: {4},
		5: {5, 6}, // eventq.push inlined into trace.overlapWith
		6: {7}, 7: {9}, 8: {8}, 9: {10},
	}
	samples := [][]uint64{
		{1, 2, 3, 4},    // channel handoff inside sim, called from nn: sim
		{5, 4},          // inlined frames: the innermost one (sim) wins
		{6, 4},          // no simulator frame: runtime bucket
		{6, 7, 8, 9, 4}, // json work on batch's behalf: batch
	}
	counts := []uint64{3, 2, 5, 4}
	for _, packed := range []bool{false, true} {
		got, err := layerSamples(testProfile(t, names, locs, samples, counts, packed))
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{"sim": 5, runtimeLayer: 5, "batch": 4}
		if len(got) != len(want) {
			t.Errorf("packed=%v: layers %v, want %v", packed, got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("packed=%v: %s = %d, want %d (all %v)", packed, k, got[k], v, got)
			}
		}
	}
}

func TestLayerSamplesRejectsGarbage(t *testing.T) {
	if _, err := layerSamples([]byte("not a profile")); err == nil {
		t.Error("want an error for non-gzip input")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, only 1 byte
	zw.Close()
	if _, err := layerSamples(buf.Bytes()); err == nil {
		t.Error("want an error for a truncated message")
	}
}

// TestLayerSamplesRealProfile profiles simulator work with runtime/pprof and
// checks the engine's time is charged to sim.
func TestLayerSamplesRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		e := sim.NewEngine()
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 2000; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		e.Run()
	}
	pprof.StopCPUProfile()
	got, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range got {
		total += n
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if got["sim"]*2 < total {
		t.Errorf("sim got %d of %d samples (%v); proc handoffs should be charged to sim", got["sim"], total, got)
	}
}
