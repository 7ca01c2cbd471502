package rig

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// referenceRead is the plain streaming encoding/json decode of a capture
// document, the behaviour ReadCapture must reproduce on every input.
func referenceRead(r io.Reader) (Capture, error) {
	var env captureEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return Capture{}, fmt.Errorf("rig: decoding capture: %w", err)
	}
	if env.Version != captureFormatVersion {
		return Capture{}, fmt.Errorf("rig: capture format version %d, want %d", env.Version, captureFormatVersion)
	}
	return env.Capture, nil
}

// quickConfig is the short recording dpreverse -quick and dpreversed
// -quick collect.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.ReadDuration = 10 * time.Second
	cfg.AlignDuration = 5 * time.Second
	cfg.TestDuration = time.Second
	return cfg
}

// savedCapture runs one car's full rig session and returns Save's output.
func savedCapture(t testing.TB, p vehicle.Profile, cfg Config) []byte {
	t.Helper()
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	defer veh.Close()
	defer tool.Close()
	r := New(tool, veh, cfg)
	defer r.Close()
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeCaptureMatchesReferenceOnFleet decodes every fleet car's
// capture, at quick and paper durations, through the single-pass path and
// checks it against encoding/json.
func TestDecodeCaptureMatchesReferenceOnFleet(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"quick", quickConfig()}, {"paper", DefaultConfig()}} {
		for _, p := range vehicle.Fleet() {
			t.Run(mode.name+"/"+p.Car, func(t *testing.T) {
				data := savedCapture(t, p, mode.cfg)
				want, err := referenceRead(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				got, ok := decodeCanonical(data)
				if !ok {
					t.Fatal("Save's output left the single-pass path")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("single-pass decode differs from encoding/json")
				}
				if cap(got.Frames) != len(got.Frames) {
					t.Fatalf("Frames has slack: len %d cap %d", len(got.Frames), cap(got.Frames))
				}
				var again bytes.Buffer
				if err := got.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), data) {
					t.Fatal("decoded capture does not save back to the same bytes")
				}
			})
		}
	}
}

// TestDecodeCaptureDoesNotAliasInput checks the decoded capture owns its
// strings: the body buffer may be reused once decoding returns.
func TestDecodeCaptureDoesNotAliasInput(t *testing.T) {
	data := savedCapture(t, mustProfile(t, "Car M"), fastConfig())
	got, err := DecodeCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceRead(bytes.NewReader(data))
	for i := range data {
		data[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded capture changed with its input buffer")
	}
}

// failingReader serves body in short reads, the last of which also
// carries err, as http.MaxBytesReader does at its limit.
type failingReader struct {
	body []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), 7)], r.body)
	r.body = r.body[n:]
	if len(r.body) == 0 {
		return n, r.err
	}
	return n, nil
}

// TestReadCaptureReplaysReadErrors checks a reader that fails mid-body
// yields what a streaming encoding/json decode of it yields.
func TestReadCaptureReplaysReadErrors(t *testing.T) {
	data := savedCapture(t, mustProfile(t, "Car M"), fastConfig())
	readErr := errors.New("link dropped")
	for name, body := range map[string][]byte{
		"truncated":     data[:len(data)/2],
		"garbage first": []byte("not json"),
		"complete":      data,
	} {
		t.Run(name, func(t *testing.T) {
			got, err := ReadCapture(&failingReader{body, readErr})
			want, wantErr := referenceRead(&failingReader{body, readErr})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("err = %v, reference %v", err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("decoded capture differs from the streaming decode")
			}
		})
	}
}

func mustProfile(t testing.TB, car string) vehicle.Profile {
	t.Helper()
	p, ok := vehicle.ProfileByCar(car)
	if !ok {
		t.Fatalf("unknown car %q", car)
	}
	return p
}

// fuzzSeeds returns Save output for a few trimmed captures plus hand
// mutations that each leave the canonical form.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, car := range []string{"Car A", "Car K", "Car M"} {
		data := savedCapture(t, mustProfile(t, car), fastConfig())
		cap, err := DecodeCapture(data)
		if err != nil {
			t.Fatal(err)
		}
		// A trimmed capture keeps the fuzzer's inputs small.
		cap.Frames, cap.UIFrames, cap.Clicks = cap.Frames[:4], cap.UIFrames[:2], cap.Clicks[:2]
		for i := range cap.UIFrames {
			f := &cap.UIFrames[i]
			f.Rows, f.Texts = f.Rows[:min(len(f.Rows), 2)], f.Texts[:min(len(f.Texts), 2)]
		}
		var buf bytes.Buffer
		if err := cap.Save(&buf); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	base := string(seeds[0])
	for _, m := range []struct{ old, new string }{
		{`{"version":1,`, `{ "version" : 1 ,`},
		{`"Frames":[`, "\"Frames\":\n\t["},
		{`"Car":`, `"car":`},
		{`"Model":`, `"MODEL":`},
		{`{"ID":`, `{"Extended":false,"ID":`},
		{`"ToolName":`, `"Tool":"x","ToolName":`},
		{`"Car":"Car A"`, `"Car":"Car A \"\\\/\b\f\n\r\té🚗"`},
		{`"Car":"Car A"`, "\"Car\":\"Car \xff\xfe A\""},
		{`"Car":"Car A"`, "\"Car\":\"Car\x01A\""},
		{`"Car":"Car A"`, `"Car":null`},
		{`"Clicks":[`, `"Clicks":null,"X":[`},
		{`"UIFrames":[`, `"UIFrames":[],"Y":[`},
		{`"Rows":[`, `"Rows":null,"R":[`},
		{`"Data":[`, `"Data":[1,`},
		{`"Data":[`, `"Data":null,"D":[`},
		{`"ID":`, `"ID":4294967296,"I":`},
		{`"ID":`, `"ID":-1,"I":`},
		{`"Data":[`, `"Data":[256,`},
		{`"Data":[`, `"Data":[01,`},
		{`"Timestamp":`, `"Timestamp":9223372036854775808,"T":`},
		{`"Timestamp":`, `"Timestamp":-9223372036854775808,"T":`},
		{`"Len":`, `"Len":8.0,"L":`},
		{`"Len":`, `"Len":1e1,"L":`},
		{`"Parsed":`, `"Parsed":1e999,"P":`},
		{`"Parsed":`, `"Parsed":-0.5E+3,"P":`},
		{`"Parsed":`, `"Parsed":.5,"P":`},
		{`"Extended":false`, `"Extended":0`},
		{`{"version":1,`, `{"version":2,`},
	} {
		if !strings.Contains(base, m.old) {
			t.Fatalf("mutation target %q missing from seed", m.old)
		}
		seeds = append(seeds, []byte(strings.Replace(base, m.old, m.new, 1)))
	}
	seeds = append(seeds,
		[]byte(base+"garbage"),
		[]byte(base+"  \r\n"),
		[]byte(base[:len(base)/3]),
		[]byte(`{"version":1,"capture":{"Car":"","Model":"","ToolName":"","Protocol":0,"Frames":[],"UIFrames":null,"Clicks":[]}}`),
		[]byte(`null`),
		[]byte(``),
	)
	return seeds
}

// FuzzReadCapture is a differential fuzz target: ReadCapture and the plain
// encoding/json decode must agree on success, on error text, and on the
// decoded capture.
func FuzzReadCapture(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceRead(bytes.NewReader(data))
		got, err := ReadCapture(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadCapture err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error text %q, reference %q", err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("decoded capture differs from encoding/json's")
		}
	})
}

// TestFuzzSeedsExerciseBothPaths checks the seed corpus reaches the
// single-pass path and the fallback alike.
func TestFuzzSeedsExerciseBothPaths(t *testing.T) {
	var fast, fallback int
	for _, s := range fuzzSeeds(t) {
		if _, ok := decodeCanonical(s); ok {
			fast++
		} else {
			fallback++
		}
	}
	if fast < 4 || fallback < 20 {
		t.Fatalf("%d seeds on the single-pass path, %d on the fallback", fast, fallback)
	}
}

// BenchmarkReadCapture decodes the Car M quick capture an upload carries.
func BenchmarkReadCapture(b *testing.B) {
	data := savedCapture(b, mustProfile(b, "Car M"), quickConfig())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCapture(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
