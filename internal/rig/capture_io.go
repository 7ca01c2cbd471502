package rig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// captureFormatVersion guards against loading captures written by an
// incompatible build.
const captureFormatVersion = 1

// captureEnvelope wraps a Capture with a version stamp for persistence.
type captureEnvelope struct {
	Version int     `json:"version"`
	Capture Capture `json:"capture"`
}

// Save serialises the capture as JSON, so collection and analysis can
// run in different processes (the paper's workflow: capture in the garage,
// analyse at the desk).
func (c Capture) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(captureEnvelope{Version: captureFormatVersion, Capture: c}); err != nil {
		return fmt.Errorf("rig: encoding capture: %w", err)
	}
	return nil
}

// maxPresize caps the buffer ReadCapture allocates up front from a
// reader's reported length, so a false length cannot buy a large
// allocation. A longer document still reads in full.
const maxPresize = 4 << 20

// ReadCapture deserialises a capture written by Save. It reads r to the
// end, into one buffer presized from r's Len method when r has one, and
// decodes it with DecodeCapture.
func ReadCapture(r io.Reader) (Capture, error) {
	var hint int64
	if l, ok := r.(interface{ Len() int }); ok {
		hint = int64(l.Len())
	}
	return readCapture(r, hint)
}

func readCapture(r io.Reader, hint int64) (Capture, error) {
	// The spare byte takes the read that reports EOF without growing; an
	// unknown length starts where io.ReadAll does.
	buf := make([]byte, 0, min(max(hint, 512), maxPresize)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return DecodeCapture(buf)
		}
		if err != nil {
			// A streaming decode of r would have seen these bytes and then
			// this error; replaying both keeps its result and error text.
			return decodeReference(io.MultiReader(bytes.NewReader(buf), errReader{err}))
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeReference is the encoding/json decode DecodeCapture falls back to.
func decodeReference(r io.Reader) (Capture, error) {
	var env captureEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return Capture{}, fmt.Errorf("rig: decoding capture: %w", err)
	}
	if env.Version != captureFormatVersion {
		return Capture{}, fmt.Errorf("rig: capture format version %d, want %d", env.Version, captureFormatVersion)
	}
	return env.Capture, nil
}

// errReader returns err on every read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// SaveCaptureFile writes the capture to a file.
func SaveCaptureFile(c Capture, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rig: creating capture file: %w", err)
	}
	defer f.Close()
	if err := c.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("rig: closing capture file: %w", err)
	}
	return nil
}

// LoadCaptureFile reads a capture from a file.
func LoadCaptureFile(path string) (Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return Capture{}, fmt.Errorf("rig: opening capture file: %w", err)
	}
	defer f.Close()
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return readCapture(f, size)
}
