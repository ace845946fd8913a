package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func genTestTrace(t *testing.T) Trace {
	t.Helper()
	tr, err := Generate(GenSpec{
		Requests:   400,
		RatePerSec: 1000,
		Seed:       11,
		Pattern:    Pattern{Kind: PatternDiurnal, PeriodUS: 2e5, Amplitude: 0.5},
		Cohorts: []Cohort{
			{Class: "chat", Tenants: 3, Weight: 2, ZipfS: 1, SeqLens: []int{4, 8}},
			{Class: "bulk", Tenants: 1, Weight: 1, SeqLens: []int{32}, DecodeSteps: 2, Burst: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := genTestTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Deterministic bytes: writing twice yields identical output.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteTrace output is not deterministic")
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("write→read round trip changed the trace")
	}
	// And the re-serialization of the read trace is byte-identical.
	var buf3 bytes.Buffer
	if err := WriteTrace(&buf3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("read→write round trip changed the bytes")
	}
}

func TestWriteTraceRejectsMalformed(t *testing.T) {
	bad := Trace{Name: "bad", Requests: []Request{
		{ID: 0, ArrivalUS: 100, SeqLen: 8},
		{ID: 1, ArrivalUS: 50, SeqLen: 8},
	}}
	var buf bytes.Buffer
	err := WriteTrace(&buf, bad)
	if err == nil {
		t.Fatal("WriteTrace recorded a non-monotone trace")
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("error %v does not wrap ErrBadTrace", err)
	}
}

// TestReadTraceRejectsBadFiles is the trace-file half of the satellite-1
// regression: corrupt files — wrong magic, wrong version, unknown
// fields, truncation, and above all non-monotone or negative arrivals —
// must fail with ErrBadTrace, never replay.
func TestReadTraceRejectsBadFiles(t *testing.T) {
	const hdr = `{"magic":"seqpoint-workload-trace","version":1,"requests":2}`
	cases := []struct {
		name string
		file string
		want string
	}{
		{"empty", "", "empty trace file"},
		{"not JSON", "hello\n", "malformed header"},
		{"wrong magic", `{"magic":"other","version":1,"requests":0}` + "\n", "not a trace file"},
		{"wrong version", `{"magic":"seqpoint-workload-trace","version":2,"requests":0}` + "\n", "version 2"},
		{"negative count", `{"magic":"seqpoint-workload-trace","version":1,"requests":-1}` + "\n", "declares -1"},
		{"unknown header field", `{"magic":"seqpoint-workload-trace","version":1,"requests":0,"extra":1}` + "\n", "malformed header"},
		{"unknown request field", hdr + "\n" + `{"id":0,"arrival_us":0,"seqlen":8,"oops":1}` + "\n", "malformed request line"},
		{"truncated", hdr + "\n" + `{"id":0,"arrival_us":0,"seqlen":8}` + "\n", "truncated"},
		{"non-monotone", hdr + "\n" +
			`{"id":0,"arrival_us":100,"seqlen":8}` + "\n" +
			`{"id":1,"arrival_us":50,"seqlen":8}` + "\n", "before request 0"},
		{"negative arrival", hdr + "\n" +
			`{"id":0,"arrival_us":-5,"seqlen":8}` + "\n" +
			`{"id":1,"arrival_us":0,"seqlen":8}` + "\n", "invalid arrival"},
		{"bad seqlen", hdr + "\n" +
			`{"id":0,"arrival_us":0,"seqlen":0}` + "\n" +
			`{"id":1,"arrival_us":0,"seqlen":8}` + "\n", "sequence length 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.file))
			if err == nil {
				t.Fatal("ReadTrace accepted a corrupt file")
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("error %v does not wrap ErrBadTrace", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestReadTraceSkipsBlankLines(t *testing.T) {
	file := `{"magic":"seqpoint-workload-trace","version":1,"name":"x","requests":1}` + "\n\n" +
		`{"id":0,"arrival_us":0,"seqlen":8,"tenant":"a"}` + "\n\n"
	tr, err := ReadTrace(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "x" || len(tr.Requests) != 1 || tr.Requests[0].Tenant != "a" {
		t.Fatalf("unexpected trace %+v", tr)
	}
}

func TestSaveLoadTrace(t *testing.T) {
	tr := genTestTrace(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("save→load round trip changed the trace")
	}
	// No temp-file litter after a successful save.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 file in temp dir, found %d", len(entries))
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("LoadTrace succeeded on a missing file")
	}
}

// TestReadTraceHugeDeclaredCount is the regression test for a header
// that declares far more requests than the file holds: ReadTrace used
// to preallocate the declared count, so an 80-byte file declaring 1e14
// requests panicked with "makeslice: cap out of range".
func TestReadTraceHugeDeclaredCount(t *testing.T) {
	file := `{"magic":"seqpoint-workload-trace","version":1,"requests":100000000000000}` + "\n"
	if len(file) > 80 {
		t.Fatalf("test file is %d bytes, want at most 80", len(file))
	}
	_, err := ReadTrace(strings.NewReader(file))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("error = %v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error %q should report the count mismatch", err)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace decoder: it must
// return a typed ErrBadTrace or a valid trace that round-trips through
// WriteTrace unchanged, and never panic or allocate from an untrusted
// count.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Trace{Name: "seed", Requests: []Request{
		{ID: 0, ArrivalUS: 0, SeqLen: 8, Tenant: "a"},
		{ID: 1, ArrivalUS: 12.5, SeqLen: 3, DecodeSteps: 4},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"magic":"seqpoint-workload-trace","version":1,"requests":100000000000000}` + "\n"))
	f.Add([]byte(`{"magic":"seqpoint-workload-trace","version":1,"requests":1}` + "\n\n" + `{"id":0,"arrival_us":0,"seqlen":8}`))
	f.Add([]byte(`{"magic":"seqpoint-workload-trace","version":1,"requests":-3}`))
	f.Add([]byte("hello\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, tr); err != nil {
			t.Fatalf("a trace ReadTrace accepted does not write back: %v", err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("trace changed across a write/read round trip:\n%+v\nvs\n%+v", tr, again)
		}
	})
}
