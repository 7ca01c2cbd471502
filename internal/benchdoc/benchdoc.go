// Package benchdoc is the committed benchmark-artifact format shared by
// cmd/benchjson (BENCH_gp.json) and the dpreversed load generator
// (BENCH_server.json): a history document {"entries": [...]} where each
// run appends one dated entry instead of clobbering the file, so a
// baseline's past stays diffable. Re-running with the same merge key
// (typically date + quick mode) replaces that entry, keeping same-day
// re-runs idempotent.
package benchdoc

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// History is the whole artifact: every recorded run, oldest first.
type History[E any] struct {
	Entries []E `json:"entries"`
}

// Load reads a history file; a missing file is an empty history. A file
// that exists but is not a history — truncated, not JSON, or a JSON
// document without an "entries" list — is an error, so a caller that
// merges and writes back never overwrites what it could not read.
func Load[E any](path string) (History[E], error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return History[E]{}, nil
	}
	if err != nil {
		return History[E]{}, err
	}
	var h History[E]
	if err := json.Unmarshal(data, &h); err != nil {
		return History[E]{}, fmt.Errorf("benchdoc: %s: %w", path, err)
	}
	if h.Entries == nil {
		return History[E]{}, fmt.Errorf("benchdoc: %s: not a benchmark history (no \"entries\" list)", path)
	}
	return h, nil
}

// Merge inserts e, replacing the first entry same() accepts and appending
// when none matches.
func (h *History[E]) Merge(e E, same func(old E) bool) {
	for i, old := range h.Entries {
		if same(old) {
			h.Entries[i] = e
			return
		}
	}
	h.Entries = append(h.Entries, e)
}

// Write persists the history as indented JSON with a trailing newline.
func (h History[E]) Write(path string) error {
	data, err := json.MarshalIndent(&h, "", "  ")
	if err != nil {
		return fmt.Errorf("benchdoc: encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
