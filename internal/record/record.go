// Package record defines the record and dataset model shared by every
// blocking technique in this repository.
//
// A Record is a flat bag of named string attributes plus two pieces of
// bookkeeping: a dense integer ID (assigned by the Dataset that owns the
// record) and an EntityID carrying ground truth for evaluation. Blocking
// techniques only ever read attribute values and IDs; the EntityID is
// consulted exclusively by the eval package.
package record

import (
	"fmt"
	"sort"
	"strings"
)

// ID is a dense, zero-based record identifier. IDs are assigned by the
// Dataset in insertion order and are stable for the lifetime of the Dataset.
type ID int32

// EntityID identifies the real-world entity a record represents. Records
// with equal EntityIDs are true matches. A negative EntityID means the
// ground truth is unknown for that record.
type EntityID int32

// UnknownEntity marks records without ground-truth labels.
const UnknownEntity EntityID = -1

// Record is a single row of a dataset: a set of named string attributes.
type Record struct {
	// ID is the dense identifier assigned by the owning Dataset.
	ID ID
	// Entity is the ground-truth entity label (UnknownEntity if unlabeled).
	Entity EntityID
	// Attrs maps attribute names to values. A missing attribute and an
	// empty-string value are both treated as "missing" by the semantic
	// layer, mirroring the paper's observation that missing values may be
	// empty strings rather than NULLs.
	Attrs map[string]string
}

// Value returns the value of the named attribute, or "" if absent.
func (r *Record) Value(attr string) string {
	if r.Attrs == nil {
		return ""
	}
	return r.Attrs[attr]
}

// Has reports whether the named attribute is present and non-empty after
// trimming whitespace.
func (r *Record) Has(attr string) bool {
	return strings.TrimSpace(r.Value(attr)) != ""
}

// Key concatenates the values of the given attributes with a single space,
// lower-cased. It is the canonical "blocking key value" used by techniques
// that operate on one composite string per record.
func (r *Record) Key(attrs ...string) string {
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if v := strings.TrimSpace(r.Value(a)); v != "" {
			parts = append(parts, v)
		}
	}
	return strings.ToLower(strings.Join(parts, " "))
}

// String renders the record compactly for debugging.
func (r *Record) String() string {
	names := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "record %d (entity %d):", r.ID, r.Entity)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%q", k, r.Attrs[k])
	}
	return b.String()
}

// Dataset is an ordered collection of records with optional ground truth.
type Dataset struct {
	// Name identifies the dataset in reports ("cora", "voter", ...).
	Name string

	records []*Record
}

// NewDataset returns an empty dataset with the given name.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name}
}

// NewDatasetView returns a read-only dataset over a prefix of an append-only
// record log (records[i].ID == i), without copying: records are immutable
// once appended and IDs are positions, so the view is observationally a
// copy. Its capacity is capped at its length, so an Append on the view
// reallocates instead of writing into the log's backing array.
func NewDatasetView(name string, records []*Record) *Dataset {
	return &Dataset{Name: name, records: records[:len(records):len(records)]}
}

// Append adds a record, assigns its ID, and returns it. The caller retains
// ownership of the Attrs map; it must not be mutated afterwards.
func (d *Dataset) Append(entity EntityID, attrs map[string]string) *Record {
	r := &Record{ID: ID(len(d.records)), Entity: entity, Attrs: attrs}
	d.records = append(d.records, r)
	return r
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns the record with the given ID.
func (d *Dataset) Record(id ID) *Record { return d.records[id] }

// Records returns the backing slice of records. Callers must treat it as
// read-only.
func (d *Dataset) Records() []*Record { return d.records }

// Labeled reports whether every record carries a ground-truth entity label.
func (d *Dataset) Labeled() bool {
	for _, r := range d.records {
		if r.Entity == UnknownEntity {
			return false
		}
	}
	return len(d.records) > 0
}

// TotalPairs returns n*(n-1)/2, the number of distinct record pairs (the Ω
// of the paper's evaluation measures).
func (d *Dataset) TotalPairs() int64 {
	n := int64(len(d.records))
	return n * (n - 1) / 2
}

// TrueMatches returns every distinct true-match pair (the paper's Ω_tp),
// derived from the ground-truth entity labels. Records without labels are
// skipped. The result is sorted.
func (d *Dataset) TrueMatches() []Pair {
	byEntity := make(map[EntityID][]ID)
	for _, r := range d.records {
		if r.Entity == UnknownEntity {
			continue
		}
		byEntity[r.Entity] = append(byEntity[r.Entity], r.ID)
	}
	var out []Pair
	for _, ids := range byEntity {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				out = append(out, MakePair(ids[i], ids[j]))
			}
		}
	}
	SortPairs(out)
	return out
}

// EntityCount returns the number of distinct labeled entities.
func (d *Dataset) EntityCount() int {
	seen := make(map[EntityID]struct{})
	for _, r := range d.records {
		if r.Entity != UnknownEntity {
			seen[r.Entity] = struct{}{}
		}
	}
	return len(seen)
}

// Subset returns a new dataset containing the first n records (or all of
// them if n exceeds the size). Record IDs are re-assigned densely; entity
// labels are preserved. Useful for scalability sweeps.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.records) {
		n = len(d.records)
	}
	out := NewDataset(fmt.Sprintf("%s[:%d]", d.Name, n))
	for _, r := range d.records[:n] {
		out.Append(r.Entity, r.Attrs)
	}
	return out
}
