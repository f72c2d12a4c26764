package record_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/record"
)

// decodedRow is one row as either side of the comparison sees it.
type decodedRow struct {
	Entity record.EntityID
	Attrs  map[string]string
}

// oracleRows is the encoding/json decoding of an ingest body that DecodeRows
// replaced, kept verbatim: trim, then one row or an array of rows.
func oracleRows(body []byte) ([]decodedRow, error) {
	trimmed := bytes.TrimSpace(body)
	var wire []record.JSONLRecord
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &wire); err != nil {
			return nil, err
		}
	} else {
		var row record.JSONLRecord
		if err := json.Unmarshal(trimmed, &row); err != nil {
			return nil, err
		}
		wire = []record.JSONLRecord{row}
	}
	rows := make([]decodedRow, 0, len(wire))
	for _, w := range wire {
		entity, attrs := w.Fields()
		rows = append(rows, decodedRow{entity, attrs})
	}
	return rows, nil
}

// oracleJSONL is the encoding/json ReadJSONL loop that ScanJSONL replaced,
// kept verbatim.
func oracleJSONL(r io.Reader) ([]decodedRow, error) {
	var rows []decodedRow
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var row record.JSONLRecord
		if err := json.Unmarshal(raw, &row); err != nil {
			return nil, fmt.Errorf("record: jsonl line %d: %w", line, err)
		}
		entity, attrs := row.Fields()
		rows = append(rows, decodedRow{entity, attrs})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("record: read jsonl: %w", err)
	}
	return rows, nil
}

func collect(decode func(fn func(record.EntityID, map[string]string)) error) ([]decodedRow, error) {
	var rows []decodedRow
	err := decode(func(entity record.EntityID, attrs map[string]string) {
		rows = append(rows, decodedRow{entity, attrs})
	})
	return rows, err
}

// decodeSeeds covers every acceptance rule of the row wire shape.
var decodeSeeds = []string{
	// shapes
	`{"entity":1,"attrs":{"title":"cascade correlation","venue":"nips"}}`,
	`[{"entity":1,"attrs":{"a":"x"}},{"attrs":{"a":"y"}}]`,
	`[]`, `[ ]`, `null`, `[null]`, `[null,{"entity":2}]`, `{}`, `[{}]`, ``, `   `,
	// outer trim is Unicode whitespace; inner whitespace is JSON's only
	"{}\v", "\v{}", " {}\u0085", "　[{}] ", "{\v}", "[\f{}]", "{ \t\r\n}",
	// trailing bytes and bad punctuation
	`{} {}`, `{}x`, `[{}]]`, `[{},]`, `[,]`, `[{}`, `{`, `{"entity":1,}`, `{"entity"1}`, `{"entity":1 "attrs":{}}`,
	// keys match case-insensitively, escapes and Unicode folding included
	`{"ENTITY":3}`, `{"Attrs":{"a":"b"}}`, `{"attrſ":{"a":"b"}}`, `{"attrſ":{"a":"b"}}`, `{"entity":4}`, `{"entitİ":4}`,
	`{"entity":1,"Entity":2,"attrs":{"a":"b"},"ATTRS":{"c":"d"}}`,
	// unknown keys are skipped but validated
	`{"x":[1,{"y":null,"z":[true,false,-0.5e+3]}],"entity":1}`, `{"x":[1,}`, `{"x":"\q"}`, `{"x":01}`, `{"x":1.}`,
	`{"x":-}`, `{"x":1e5}`, `{"x":1E-5}`, `{"x":tru}`, `{"x":nul}`, `{"x":"\u12"}`, `{"x":"a` + "\x01" + `"}`, `{"x":{"a"}}`, `{"x":{1:2}}`,
	// entity
	`{"entity":1.0}`, `{"entity":1e2}`, `{"entity":2147483647}`, `{"entity":2147483648}`, `{"entity":-2147483648}`,
	`{"entity":-2147483649}`, `{"entity":-0}`, `{"entity":-1}`, `{"entity":null}`, `{"entity":"1"}`, `{"entity":true}`,
	`{"entity":{}}`, `{"entity":[]}`, `{"entity":5,"entity":null}`, `{"entity":null,"entity":5}`, `{"entity":99999999999999999999}`,
	`{"entity":01}`, `{"entity":-}`, `{"entity":+1}`, `[{"entity":1},{"entity":1.5}]`,
	// attrs
	`{"attrs":null}`, `{"attrs":[]}`, `{"attrs":"x"}`, `{"attrs":1}`, `{"attrs":{"a":"1"},"attrs":{"b":"2"}}`,
	`{"attrs":{"a":"1"},"attrs":null,"attrs":{"b":"2"}}`, `{"attrs":{"a":"1"},"attrs":null}`, `{"attrs":{"a":null}}`,
	`{"attrs":{"a":"1"},"attrs":{"a":null}}`, `{"attrs":{"a":1}}`, `{"attrs":{"a":"1","a":"2"}}`, `{"attrs":{"a":{}}}`,
	`{"attrs":{"a":[]}}`, `{"attrs":{"a":true}}`, `{"attrs":{"":""}}`, `{"attrs":{"a":"x",}}`,
	// strings: escapes, surrogates, invalid UTF-8, control characters
	`{"attrs":{"a":"é😀 \/\b\f\n\r\t\"\\"}}`, `{"attrs":{"a":"\u0000"}}`, `{"attrs":{"a":"\ud800"}}`,
	`{"attrs":{"a":"\udc00\ud800"}}`, `{"attrs":{"a":"\ud800A"}}`, `{"attrs":{"a":"\ud800𐀀"}}`,
	`{"attrs":{"a":"\ud800\u"}}`, `{"attrs":{"a":"\ud83d\ude0"}}`, `{"attrs":{"\ud800":"k"}}`,
	"{\"attrs\":{\"a\":\"\xff\"}}", "{\"attrs\":{\"a\":\"\xed\xa0\x80\"}}", "{\"attrs\":{\"a\":\"\xe2\x82\"}}",
	"{\"attrs\":{\"\xc3\":\"k\"}}", "{\"attrs\":{\"a\":\"tab\tin\"}}", "{\"attrs\":{\"a\":\"del\x7f\"}}",
	"{\"attrs\":{\"a\":\"\xef\xbf\xbd\"}}", `{"attrs":{"a":"x\`, `{"attrs":{"a":"x`,
	// JSON Lines framing
	"{}\n\n{\"entity\":1}\n", "{}\r\n{\"entity\":2}\r\n", "{}\nnot json\n", "[{}]\n", "null\n\n", "\v\n{}", "{\"attrs\":\n{}}",
}

// FuzzDecodeRows holds the decoder to encoding/json: on every input both
// entry points must produce the rows the replaced encoding/json code
// produced, or reject it as that code did.
func FuzzDecodeRows(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(matchOracle)
}

// TestDecodeRowsDepthLimit checks encoding/json's nesting limit of 10000
// levels, which applies inside skipped values too. The inputs are too large
// to seed the fuzz corpus with: minimising them stalls the fuzzer.
func TestDecodeRowsDepthLimit(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
		{`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
		{`[{"x":` + strings.Repeat(`{"y":`, 9998) + `0` + strings.Repeat("}", 9998) + `}]`, true},
		{`[{"x":` + strings.Repeat(`{"y":`, 9999) + `0` + strings.Repeat("}", 9999) + `}]`, false},
	} {
		matchOracle(t, []byte(tc.in))
		if err := record.DecodeRows([]byte(tc.in), func(record.EntityID, map[string]string) {}); (err == nil) != tc.ok {
			t.Errorf("%.40q...: error %v, want accepted %v", tc.in, err, tc.ok)
		}
	}
}

// matchOracle requires both entry points to produce the rows the replaced
// encoding/json code produced from in, or to reject it as that code did.
// The input is overwritten after decoding, so a row that aliased it would
// fail the comparison.
func matchOracle(t *testing.T, in []byte) {
	buf := append([]byte(nil), in...)
	want, wantErr := oracleRows(in)
	got, err := collect(func(fn func(record.EntityID, map[string]string)) error {
		return record.DecodeRows(buf, fn)
	})
	clear(buf)
	compareRows(t, "DecodeRows", in, got, err, want, wantErr)

	want, wantErr = oracleJSONL(bytes.NewReader(in))
	got, err = collect(func(fn func(record.EntityID, map[string]string)) error {
		return record.ScanJSONL(bytes.NewReader(in), fn)
	})
	compareRows(t, "ScanJSONL", in, got, err, want, wantErr)
}

func compareRows(t *testing.T, what string, in []byte, got []decodedRow, err error, want []decodedRow, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s(%.200q): error %v, encoding/json error %v", what, in, err, wantErr)
	case err == nil && (len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want)):
		t.Fatalf("%s(%.200q) = %+v, encoding/json %+v", what, in, got, want)
	}
}

func TestDecodeRowsValues(t *testing.T) {
	body := ` [null, {"ENTITY":7,"attrs":{"a":"xé"},"Attrs":{"b":null},"note":[1,2]}] `
	got, err := collect(func(fn func(record.EntityID, map[string]string)) error {
		return record.DecodeRows([]byte(body), fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []decodedRow{
		{record.UnknownEntity, map[string]string{}},
		{7, map[string]string{"a": "xé", "b": ""}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestDecodeRowsErrorNamesElement(t *testing.T) {
	err := record.DecodeRows([]byte(`[{"entity":1},{"entity":1.5}]`), func(record.EntityID, map[string]string) {})
	if err == nil || !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("error %v does not name array element 1", err)
	}
}

// BenchmarkDecodeRows decodes one 1,024-row salted-Cora ingest body — the
// shape the serve-firehose workload POSTs — with the replaced encoding/json
// path (oracle) and with DecodeRows (decoder).
func BenchmarkDecodeRows(b *testing.B) {
	body := saltedCoraBody(b, 1024)
	const rows = 1024
	for _, bc := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"oracle", func(body []byte) error { _, err := oracleRows(body); return err }},
		{"decoder", func(body []byte) error {
			return record.DecodeRows(body, func(record.EntityID, map[string]string) {})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * rows
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
		})
	}
}

// saltedCoraBody renders n Cora-like records as one JSON array body, with
// the entity tag appended to title and authors as the end-to-end benchmark
// does, so unrelated entities stay textually distinct.
func saltedCoraBody(b *testing.B, n int) []byte {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records, cfg.Seed = n, 1
	d := datagen.Cora(cfg)
	wire := make([]record.JSONLRecord, 0, d.Len())
	for _, r := range d.Records() {
		salt := fmt.Sprintf(" c%d", r.Entity)
		r.Attrs["title"] += salt
		r.Attrs["authors"] += salt
		e := r.Entity
		wire = append(wire, record.JSONLRecord{Entity: &e, Attrs: r.Attrs})
	}
	body, err := json.Marshal(wire)
	if err != nil {
		b.Fatal(err)
	}
	return body
}
