package benchdoc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type entry struct {
	Date  string  `json:"date"`
	Quick bool    `json:"quick,omitempty"`
	NsOp  float64 `json:"ns_per_op"`
}

func sameRun(e entry) func(entry) bool {
	return func(old entry) bool { return old.Date == e.Date && old.Quick == e.Quick }
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	h, err := Load[entry](filepath.Join(t.TempDir(), "BENCH_missing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 0 {
		t.Fatalf("entries = %+v, want none", h.Entries)
	}
}

func TestMergeWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	var h History[entry]
	for _, e := range []entry{
		{Date: "2026-10-01", NsOp: 10},
		{Date: "2026-10-01", Quick: true, NsOp: 5},
		{Date: "2026-10-01", NsOp: 9}, // same run: replaces the first entry
		{Date: "2026-10-02", NsOp: 8},
	} {
		h.Merge(e, sameRun(e))
	}
	if err := h.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load[entry](path)
	if err != nil {
		t.Fatal(err)
	}
	want := []entry{
		{Date: "2026-10-01", NsOp: 9},
		{Date: "2026-10-01", Quick: true, NsOp: 5},
		{Date: "2026-10-02", NsOp: 8},
	}
	if !reflect.DeepEqual(got.Entries, want) {
		t.Fatalf("entries = %+v, want %+v", got.Entries, want)
	}
}

// A file Load cannot read as a history must be an error: the callers
// merge into what Load returns and write it back over the file.
func TestLoadRejectsUnreadableFiles(t *testing.T) {
	for name, body := range map[string]string{
		"truncated": `{"entries": [{"date": "2026-10-01", "ns_per_op": 9}`,
		"foreign":   `{"workload": "batch-full", "jobs_per_s": 3.2}`,
		"empty":     ``,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_x.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if h, err := Load[entry](path); err == nil {
				t.Fatalf("Load = %+v, nil error; want an error", h)
			}
		})
	}
}
