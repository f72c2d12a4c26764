package main

// sseFrame is one server-sent event of the consumer stream, reduced to the
// fields the benchmark checks: the cursor window it covers and how many
// pairs it carried.
type sseFrame struct {
	Event  string // "cursor" (subscribe handshake) or "pairs"
	Cursor int64  // first emission-sequence position of the frame
	Next   int64  // cursor after acknowledging the frame (pairs events)
	Count  int64  // the frame's own "count" field
	Total  int64  // collection-wide emitted_total at pop time
	Pairs  int64  // [left,right] elements actually scanned
	Bytes  int64  // wire bytes of the frame, terminator included
}

// sseScanner is an incremental, allocation-free scanner of the wire format
// GET /v1/collections/{c}/consumers/{g}/stream produces:
//
//	event: pairs
//	data: {"count":2,"cursor":0,...,"next_cursor":2,"pairs":[[0,1],[0,2]]}
//	<blank line>
//
// plus ": keepalive" comment lines. It is fed arbitrary chunks (Write) and
// keeps its state across them, so a frame split anywhere — inside a number,
// a key, the event name — scans the same as one delivered whole, and a
// multi-megabyte catch-up frame is never buffered or handed to
// encoding/json: at saturation that decode would cost the load generator
// more CPU than the server spends producing the frame.
//
// onPair runs for every [left,right] element as it is scanned; onFrame runs
// at the blank line ending each event.
type sseScanner struct {
	onPair  func(left, right int32)
	onFrame func(sseFrame)

	frame sseFrame

	// line state
	atLineStart bool
	field       []byte // bytes of the current line up to the first ':'
	inField     bool
	kind        lineKind
	skipSpace   bool // drop the single space after "field:"
	lineLen     int

	// JSON lexer state, valid inside a data line
	depth  int
	inStr  bool
	esc    bool
	str    []byte // last string token at depth 1 (capped)
	key    []byte // last object key at depth 1
	inNum  bool
	num    int64
	elem   int // numbers seen in the current depth-3 array
	left   int64
	evName []byte
}

type lineKind uint8

const (
	lineUnknown lineKind = iota
	lineEvent
	lineData
	lineOther // comment or unknown field: skipped to the newline
)

func newSSEScanner(onPair func(left, right int32), onFrame func(sseFrame)) *sseScanner {
	return &sseScanner{onPair: onPair, onFrame: onFrame, atLineStart: true}
}

// Write scans one chunk of the stream. It never fails; malformed input
// shows as frames whose Count, Pairs and cursor window disagree, which the
// caller checks.
func (s *sseScanner) Write(p []byte) (int, error) {
	for _, c := range p {
		s.frame.Bytes++
		if c == '\r' {
			continue
		}
		if s.atLineStart {
			s.atLineStart = false
			s.lineLen = 0
			s.field = s.field[:0]
			s.inField = true
			s.kind = lineUnknown
		}
		if c == '\n' {
			s.endLine()
			continue
		}
		s.lineLen++
		if s.inField {
			if c != ':' {
				if len(s.field) < 16 {
					s.field = append(s.field, c)
				}
				continue
			}
			s.inField = false
			s.skipSpace = true
			switch string(s.field) {
			case "event":
				s.kind = lineEvent
				s.evName = s.evName[:0]
			case "data":
				s.kind = lineData
				s.depth, s.inStr, s.esc, s.inNum = 0, false, false, false
				s.key = s.key[:0]
			default:
				s.kind = lineOther
			}
			continue
		}
		if s.skipSpace {
			s.skipSpace = false
			if c == ' ' {
				continue
			}
		}
		switch s.kind {
		case lineEvent:
			if len(s.evName) < 16 {
				s.evName = append(s.evName, c)
			}
		case lineData:
			s.lex(c)
		}
	}
	return len(p), nil
}

// endLine handles a newline: a blank line dispatches the pending event.
func (s *sseScanner) endLine() {
	s.atLineStart = true
	if s.kind == lineData && s.inNum {
		s.endNumber()
	}
	if s.lineLen > 0 || len(s.evName) == 0 {
		// Not the end of an event: a keepalive's bytes count towards the
		// frame that follows it.
		return
	}
	s.frame.Event = string(s.evName)
	if s.onFrame != nil {
		s.onFrame(s.frame)
	}
	s.frame = sseFrame{}
	s.evName = s.evName[:0]
}

// lex advances the JSON lexer by one byte of a data line.
func (s *sseScanner) lex(c byte) {
	if s.inStr {
		switch {
		case s.esc:
			s.esc = false
		case c == '\\':
			s.esc = true
		case c == '"':
			s.inStr = false
		default:
			if s.depth == 1 && len(s.str) < 24 {
				s.str = append(s.str, c)
			}
		}
		return
	}
	if c >= '0' && c <= '9' {
		if !s.inNum {
			s.inNum = true
			s.num = 0
		}
		s.num = s.num*10 + int64(c-'0')
		return
	}
	if s.inNum {
		s.endNumber()
	}
	switch c {
	case '"':
		s.inStr = true
		if s.depth == 1 {
			s.str = s.str[:0]
		}
	case ':':
		if s.depth == 1 {
			s.key = append(s.key[:0], s.str...)
		}
	case '{', '[':
		s.depth++
		if s.depth == 3 {
			s.elem = 0
		}
	case '}', ']':
		s.depth--
	}
}

// endNumber files a completed integer: a top-level field by its key, or an
// element of one [left,right] entry of the pairs array.
func (s *sseScanner) endNumber() {
	s.inNum = false
	switch s.depth {
	case 1:
		switch string(s.key) {
		case "cursor":
			s.frame.Cursor = s.num
		case "next_cursor":
			s.frame.Next = s.num
		case "count":
			s.frame.Count = s.num
		case "emitted_total":
			s.frame.Total = s.num
		}
	case 3:
		if string(s.key) != "pairs" {
			return
		}
		if s.elem == 0 {
			s.left = s.num
		} else if s.elem == 1 {
			s.frame.Pairs++
			if s.onPair != nil {
				s.onPair(int32(s.left), int32(s.num))
			}
		}
		s.elem++
	}
}
