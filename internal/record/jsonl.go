package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLRecord is the one-line JSON wire form of a record: the optional
// ground-truth label plus the attribute map. It is the single dataset wire
// format shared by JSONL dataset files, the serving layer's ingest bodies
// (single row, row array, or bulk JSONL) and its snapshot segment files
// (internal/server), mirroring what the entity_id column scheme does for
// CSV. The writers encode this type with encoding/json; every reader goes
// through DecodeRows or ScanJSONL (decode.go), which accept exactly what
// unmarshalling into this type accepts, so the formats cannot diverge.
type JSONLRecord struct {
	Entity *EntityID         `json:"entity,omitempty"`
	Attrs  map[string]string `json:"attrs"`
}

// Fields normalises the wire form into Dataset.Append's parameters: a
// missing entity yields UnknownEntity and nil attrs an empty map.
func (jr JSONLRecord) Fields() (EntityID, map[string]string) {
	entity := UnknownEntity
	if jr.Entity != nil {
		entity = *jr.Entity
	}
	attrs := jr.Attrs
	if attrs == nil {
		attrs = map[string]string{}
	}
	return entity, attrs
}

// WriteJSONL serialises the dataset as JSON Lines: one
// {"entity":ID,"attrs":{...}} object per record, in record order. The
// entity field is omitted for unlabeled records, so labels survive a
// round-trip exactly like WriteCSV's entity_id column.
func WriteJSONL(w io.Writer, d *Dataset) error {
	return WriteJSONLRecords(w, d.Records())
}

// WriteJSONLRecords is WriteJSONL over a bare record slice, for callers
// that already hold the records — e.g. a span of an immutable log — and
// should not have to copy them into a Dataset just to serialise them.
func WriteJSONLRecords(w io.Writer, recs []*Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		row := JSONLRecord{Attrs: r.Attrs}
		if r.Entity != UnknownEntity {
			e := r.Entity
			row.Entity = &e
		}
		if row.Attrs == nil {
			row.Attrs = map[string]string{}
		}
		if err := enc.Encode(row); err != nil {
			return fmt.Errorf("record: write jsonl row %d: %w", r.ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("record: flush jsonl: %w", err)
	}
	return nil
}

// ReadJSONL parses a dataset written by WriteJSONL (or any stream of
// {"entity":ID,"attrs":{...}} lines) through ScanJSONL. Blank lines are
// skipped; a missing entity field yields UnknownEntity. Record IDs are
// assigned densely in line order, as Dataset.Append always does.
func ReadJSONL(r io.Reader, name string) (*Dataset, error) {
	d := NewDataset(name)
	if err := ScanJSONL(r, func(entity EntityID, attrs map[string]string) {
		d.Append(entity, attrs)
	}); err != nil {
		return nil, err
	}
	return d, nil
}
