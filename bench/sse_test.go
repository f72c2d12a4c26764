package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sseStream is a stream as the server writes it: the subscribe handshake,
// two pairs frames with a keepalive between them, and a frame with no pairs
// field order the scanner could rely on.
const sseStream = "event: cursor\ndata: {\"cursor\":40,\"emitted_total\":45,\"group\":\"bench\"}\n\n" +
	"event: pairs\ndata: {\"count\":3,\"cursor\":40,\"emitted_total\":45,\"group\":\"bench\",\"next_cursor\":43,\"pairs\":[[0,7],[3,7],[12,1048575]]}\n\n" +
	": keepalive\n\n" +
	"event: pairs\ndata: {\"pairs\":[[5,9],[6,9]],\"group\":\"be\\\"nch, \\\"cursor\\\":99\",\"next_cursor\":45,\"cursor\":43,\"count\":2,\"emitted_total\":45}\n\n"

type scanned struct {
	Frames []sseFrame
	Pairs  [][2]int32
}

// scan feeds the stream to a fresh scanner in chunks of the given size.
func scan(stream string, chunk int) scanned {
	var out scanned
	sc := newSSEScanner(
		func(l, r int32) { out.Pairs = append(out.Pairs, [2]int32{l, r}) },
		func(f sseFrame) { out.Frames = append(out.Frames, f) })
	for lo := 0; lo < len(stream); lo += chunk {
		hi := lo + chunk
		if hi > len(stream) {
			hi = len(stream)
		}
		sc.Write([]byte(stream[lo:hi]))
	}
	return out
}

func TestSSEScanner(t *testing.T) {
	got := scan(sseStream, len(sseStream))
	wantPairs := [][2]int32{{0, 7}, {3, 7}, {12, 1048575}, {5, 9}, {6, 9}}
	if !reflect.DeepEqual(got.Pairs, wantPairs) {
		t.Errorf("pairs %v, want %v", got.Pairs, wantPairs)
	}
	if len(got.Frames) != 3 {
		t.Fatalf("%d frames, want 3 (the keepalive is not one): %+v", len(got.Frames), got.Frames)
	}
	hs, a, b := got.Frames[0], got.Frames[1], got.Frames[2]
	if hs.Event != "cursor" || hs.Cursor != 40 || hs.Total != 45 {
		t.Errorf("handshake %+v", hs)
	}
	if a.Event != "pairs" || a.Cursor != 40 || a.Next != 43 || a.Count != 3 || a.Pairs != 3 || a.Total != 45 {
		t.Errorf("first pairs frame %+v", a)
	}
	// Key order does not matter, and a key-looking run inside a string
	// value is not a key.
	if b.Cursor != 43 || b.Next != 45 || b.Count != 2 || b.Pairs != 2 {
		t.Errorf("second pairs frame %+v", b)
	}
	// Every byte belongs to exactly one frame (a keepalive's to the next).
	if total := hs.Bytes + a.Bytes + b.Bytes; total != int64(len(sseStream)) {
		t.Errorf("frames account for %d of %d bytes", total, len(sseStream))
	}
}

// TestSSEScannerSplitFrames delivers the stream in chunks of every size: a
// frame cut inside a number, a key, the event name or the terminator must
// scan exactly like the whole stream.
func TestSSEScannerSplitFrames(t *testing.T) {
	whole := scan(sseStream, len(sseStream))
	for chunk := 1; chunk < len(sseStream); chunk++ {
		if got := scan(sseStream, chunk); !reflect.DeepEqual(got, whole) {
			t.Fatalf("chunks of %d bytes scan differently:\n got %+v\nwant %+v", chunk, got, whole)
		}
	}
}

func TestSSEScannerCRLFAndBigFrame(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("event: pairs\r\ndata: {\"count\":50000,\"cursor\":0,\"next_cursor\":50000,\"pairs\":[")
	for i := 0; i < 50000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i+1)
	}
	sb.WriteString("]}\r\n\r\n")
	got := scan(sb.String(), 4096)
	if len(got.Frames) != 1 || got.Frames[0].Pairs != 50000 || got.Frames[0].Next != 50000 {
		t.Fatalf("big CRLF frame: %+v", got.Frames)
	}
	if last := got.Pairs[len(got.Pairs)-1]; last != [2]int32{49999, 50000} {
		t.Errorf("last pair %v", last)
	}
}
