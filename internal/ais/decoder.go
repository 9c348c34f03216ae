package ais

// Message is a decoded AIS message: Type says which payload is set.
// Positions, nearly all of a feed, come by value so decoding one allocates
// nothing.
type Message struct {
	Type        int
	Position    PositionReport     // types 1-3 and 18
	Static      *StaticReport      // type 5
	BaseStation *BaseStationReport // type 4
	StaticB     *StaticBReport     // type 24
}

// Decoder turns a stream of NMEA lines into decoded AIS messages, handling
// checksum verification and multi-sentence assembly. A Decoder is not safe
// for concurrent use; create one per input stream.
type Decoder struct {
	asm  *Assembler
	bits bitBuf // un-armored payload of the message being decoded; reused

	// Counters for data-quality reporting.
	Lines       int // lines fed
	BadSentence int // framing/checksum failures
	BadPayload  int // armoring/field decode failures
	Skipped     int // valid messages of unsupported types
	Decoded     int // successfully decoded messages
}

// NewDecoder returns a Decoder ready to consume NMEA lines.
func NewDecoder() *Decoder {
	return &Decoder{asm: NewAssembler(8)}
}

// Feed consumes one NMEA line. ok=false means it completed no supported
// message (a fragment, an error or an unsupported type: the counters tell
// which). The line is not retained.
func (d *Decoder) Feed(line []byte) (Message, bool) {
	d.Lines++
	s, err := ParseSentence(line)
	if err != nil {
		d.BadSentence++
		return Message{}, false
	}
	return d.FeedSentence(&s)
}

// FeedSentence is Feed after ParseSentence. A one-sentence message leaves
// the assembler untouched: any Decoder may decode it, in any order.
func (d *Decoder) FeedSentence(s *Sentence) (Message, bool) {
	payload, fill, done := d.asm.Push(*s)
	if !done {
		return Message{}, false
	}
	return d.decodePayload(payload, fill)
}

func (d *Decoder) decodePayload(payload []byte, fill int) (m Message, ok bool) {
	b := &d.bits
	err := b.unarmor(payload, fill)
	if err != nil || b.Len() < 6 {
		d.BadPayload++
		return Message{}, false
	}
	switch m.Type = int(b.uint(0, 6)); m.Type {
	case TypePositionA1, TypePositionA2, TypePositionA3, TypePositionB:
		m.Position, err = decodePosition(b)
	case TypeStatic:
		s, e := decodeStatic(b)
		m.Static, err = &s, e
	case TypeBaseStation:
		s, e := decodeBaseStation(b)
		m.BaseStation, err = &s, e
	case TypeStaticB:
		s, e := decodeStaticB(b)
		m.StaticB, err = &s, e
	default:
		d.Skipped++
		return Message{}, false
	}
	if err != nil {
		d.BadPayload++
		return Message{}, false
	}
	d.Decoded++
	return m, true
}
