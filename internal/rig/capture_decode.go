package rig

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"dpreverser/internal/can"
	"dpreverser/internal/ocr"
	"dpreverser/internal/vehicle"
)

// DecodeCapture decodes a capture document written by Save.
//
// Save writes one canonical form: compact JSON with the struct fields in
// declaration order, closed by a newline. DecodeCapture walks that form in
// a single pass. Any other document (whitespace between tokens, reordered,
// unknown or case-variant keys, null scalars, another version, malformed
// input, trailing bytes) goes unchanged to encoding/json, so every
// accepted input decodes exactly as encoding/json decodes it and every
// error is encoding/json's. The result never aliases data.
func DecodeCapture(data []byte) (Capture, error) {
	if c, ok := decodeCanonical(data); ok {
		return c, nil
	}
	return decodeReference(bytes.NewReader(data))
}

// canonical is the single-pass decoder's cursor over one document. The
// first unexpected byte sets bad and moves the cursor to the end, so every
// later step fails at once and callers check bad only when done.
type canonical struct {
	b   []byte
	i   int
	bad bool
	// strs interns strings per document: labels, units and screen names
	// repeat in every video frame.
	strs map[string]string
	// rows and texts are scratch slices reused across video frames; each
	// frame keeps an exact-size copy.
	rows  []ocr.Row
	texts []ocr.Text
}

// canonicalHead opens every document Save writes with
// captureFormatVersion 1.
const canonicalHead = `{"version":1,"capture":{"Car":`

// minimalFrame is the shortest frame Save can write.
const minimalFrame = `{"ID":0,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":0}`

// decodeCanonical decodes Save's canonical form; ok is false on any
// departure from it.
//
//dplint:hotpath capture-decode
func decodeCanonical(data []byte) (c Capture, ok bool) {
	d := &canonical{b: data, strs: map[string]string{}}
	d.lit(canonicalHead)
	c.Car = d.str()
	d.lit(`,"Model":`)
	c.Model = d.str()
	d.lit(`,"ToolName":`)
	c.ToolName = d.str()
	d.lit(`,"Protocol":`)
	c.Protocol = vehicle.Protocol(d.integer())
	d.lit(`,"Frames":`)
	// `{"ID":` cannot occur raw inside a JSON string, so it counts the
	// frames exactly and Frames is allocated once, with no slack. The
	// clamp keeps a hostile body from buying more frames than it could
	// hold.
	n := min(bytes.Count(data, []byte(`{"ID":`)), len(data)/len(minimalFrame))
	c.Frames = list(d, make([]can.Frame, 0, n), (*canonical).frame)
	d.lit(`,"UIFrames":`)
	c.UIFrames = slices.Clone(list(d, []ocr.Frame(nil), (*canonical).uiFrame))
	d.lit(`,"Clicks":`)
	c.Clicks = slices.Clone(list(d, []ClickEvent(nil), (*canonical).click))
	d.lit(`}}`)
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
	if d.bad || d.i != len(d.b) {
		return Capture{}, false
	}
	return c, true
}

//dplint:hotpath capture-decode
func (d *canonical) frame(f *can.Frame) {
	d.lit(`{"ID":`)
	f.ID = uint32(d.unsigned(math.MaxUint32))
	d.lit(`,"Extended":`)
	f.Extended = d.boolean()
	d.lit(`,"Data":[`)
	for k := range f.Data {
		if k > 0 {
			d.lit(`,`)
		}
		f.Data[k] = byte(d.unsigned(math.MaxUint8))
	}
	d.lit(`],"Len":`)
	f.Len = d.integer()
	d.lit(`,"Timestamp":`)
	f.Timestamp = d.duration()
	d.lit(`}`)
}

//dplint:hotpath capture-decode
func (d *canonical) uiFrame(f *ocr.Frame) {
	d.lit(`{"At":`)
	f.At = d.duration()
	d.lit(`,"ScreenName":`)
	f.ScreenName = d.str()
	d.lit(`,"Title":`)
	f.Title = d.str()
	d.lit(`,"Rows":`)
	d.rows = list(d, d.rows, (*canonical).row)
	f.Rows = slices.Clone(d.rows)
	d.lit(`,"Texts":`)
	d.texts = list(d, d.texts, (*canonical).text)
	f.Texts = slices.Clone(d.texts)
	d.lit(`,"Corrupted":`)
	f.Corrupted = d.boolean()
	d.lit(`}`)
}

//dplint:hotpath capture-decode
func (d *canonical) row(r *ocr.Row) {
	d.lit(`{"Index":`)
	r.Index = d.integer()
	d.lit(`,"Label":`)
	r.Label = d.str()
	d.lit(`,"Unit":`)
	r.Unit = d.str()
	d.lit(`,"Value":`)
	r.Value = d.str()
	d.lit(`,"Parsed":`)
	r.Parsed = d.number()
	d.lit(`,"ParseOK":`)
	r.ParseOK = d.boolean()
	d.lit(`,"Y":`)
	r.Y = d.integer()
	d.lit(`}`)
}

//dplint:hotpath capture-decode
func (d *canonical) text(t *ocr.Text) {
	d.lit(`{"Content":`)
	t.Content = d.str()
	d.lit(`,"X":`)
	t.X = d.integer()
	d.lit(`,"Y":`)
	t.Y = d.integer()
	d.lit(`,"W":`)
	t.W = d.integer()
	d.lit(`,"H":`)
	t.H = d.integer()
	d.lit(`}`)
}

//dplint:hotpath capture-decode
func (d *canonical) click(c *ClickEvent) {
	d.lit(`{"At":`)
	c.At = d.duration()
	d.lit(`,"X":`)
	c.X = d.integer()
	d.lit(`,"Y":`)
	c.Y = d.integer()
	d.lit(`,"Text":`)
	c.Text = d.str()
	d.lit(`,"Hit":`)
	c.Hit = d.boolean()
	d.lit(`}`)
}

// list decodes an array, or null (nil), appending each element to
// buf[:0]. An empty array yields an empty non-nil slice, as
// encoding/json's does.
//
//dplint:hotpath capture-decode
func list[T any](d *canonical, buf []T, elem func(*canonical, *T)) []T {
	if d.accept(`null`) {
		return nil
	}
	d.lit(`[`)
	buf = buf[:0]
	if buf == nil {
		buf = []T{}
	}
	if d.accept(`]`) {
		return buf
	}
	for !d.bad {
		var zero T
		buf = append(buf, zero)
		elem(d, &buf[len(buf)-1])
		if !d.accept(`,`) {
			d.lit(`]`)
			break
		}
	}
	return buf
}

func (d *canonical) fail() {
	d.bad = true
	d.i = len(d.b)
}

// accept consumes s if the input continues with it.
func (d *canonical) accept(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s or fails.
func (d *canonical) lit(s string) {
	if !d.accept(s) {
		d.fail()
	}
}

// unsigned consumes a JSON integer in [0, limit]. A sign, which
// encoding/json rejects on an unsigned field, fails here; a fraction or
// exponent fails at the literal that must follow.
func (d *canonical) unsigned(limit uint64) uint64 {
	start := d.i
	cut, last := limit/10, limit%10
	var u uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		c := uint64(d.b[d.i] - '0')
		if u > cut || (u == cut && c > last) {
			d.fail()
			return 0
		}
		u = u*10 + c
		d.i++
	}
	if n := d.i - start; n == 0 || (n > 1 && d.b[start] == '0') {
		d.fail()
		return 0
	}
	return u
}

// signed decodes an integer in [lo, hi].
func (d *canonical) signed(lo, hi int64) int64 {
	if d.accept(`-`) {
		// -lo as uint64, without overflowing at math.MinInt64.
		return -int64(d.unsigned(uint64(-(lo + 1)) + 1))
	}
	return int64(d.unsigned(uint64(hi)))
}

func (d *canonical) integer() int { return int(d.signed(math.MinInt, math.MaxInt)) }

func (d *canonical) duration() time.Duration {
	return time.Duration(d.signed(math.MinInt64, math.MaxInt64))
}

func (d *canonical) boolean() bool {
	if d.accept(`true`) {
		return true
	}
	d.lit(`false`)
	return false
}

// number decodes a float after checking it against the JSON grammar,
// which strconv.ParseFloat alone does not enforce.
func (d *canonical) number() float64 {
	start := d.i
	d.accept(`-`)
	ok := d.accept(`0`) || d.skipDigits() > 0
	if d.accept(`.`) {
		ok = d.skipDigits() > 0 && ok
	}
	if d.accept(`e`) || d.accept(`E`) {
		if !d.accept(`+`) {
			d.accept(`-`)
		}
		ok = d.skipDigits() > 0 && ok
	}
	if !ok {
		d.fail()
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return f
}

func (d *canonical) skipDigits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// str decodes a string literal. A literal with escapes, or with bytes
// that are not valid UTF-8, is decoded by encoding/json itself.
//
//dplint:hotpath capture-decode
func (d *canonical) str() string {
	if !d.accept(`"`) {
		d.fail()
		return ""
	}
	start := d.i
	var escaped, nonASCII bool
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			raw := d.b[start:d.i]
			d.i++
			if !escaped && (!nonASCII || utf8.Valid(raw)) {
				return d.intern(raw)
			}
			var s string
			if json.Unmarshal(d.b[start-1:d.i], &s) != nil {
				d.fail()
				return ""
			}
			return d.intern([]byte(s))
		case c == '\\':
			escaped = true
			d.i++ // the escaped byte cannot close the literal
		case c < 0x20:
			d.fail() // a raw control byte: encoding/json reports it
			return ""
		case c >= utf8.RuneSelf:
			nonASCII = true
		}
	}
	d.fail()
	return ""
}

// intern returns the document's one copy of b as a string.
func (d *canonical) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
