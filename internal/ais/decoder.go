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

// Decoder turns parsed NMEA sentences into decoded AIS messages, handling
// multi-sentence assembly. A Decoder is not safe for concurrent use;
// create one per input stream.
type Decoder struct {
	asm  *Assembler
	bits bitBuf // un-armored payload of the message being decoded; reused

	// Counters for data-quality reporting.
	BadPayload int // armoring/field decode failures
	Skipped    int // valid messages of unsupported types
	Decoded    int // successfully decoded messages
}

// NewDecoder returns a Decoder ready to consume sentences.
func NewDecoder() *Decoder {
	return &Decoder{asm: NewAssembler(8)}
}

// FeedSentence consumes one sentence ParseSentence filled. When it
// completes a supported message it decodes it into m, in place, and
// returns true; false means it completed none (a fragment, an error or an
// unsupported type: the counters tell which) and leaves m unspecified. A
// one-sentence message leaves the assembler untouched: any Decoder may
// decode it, in any order.
func (d *Decoder) FeedSentence(s *Sentence, m *Message) bool {
	payload, fill, done := d.asm.Push(s)
	return done && d.decodePayload(payload, fill, m)
}

func (d *Decoder) decodePayload(payload []byte, fill int, m *Message) bool {
	b := &d.bits
	err := b.unarmor(payload, fill)
	if err != nil || b.Len() < 6 {
		d.BadPayload++
		return false
	}
	switch t := int(b.uint(0, 6)); t {
	case TypePositionA1, TypePositionA2, TypePositionA3, TypePositionB:
		m.Type, m.Static, m.BaseStation, m.StaticB = t, nil, nil, nil
		err = decodePosition(b, &m.Position)
	case TypeStatic:
		*m = Message{Type: t, Static: new(StaticReport)}
		*m.Static, err = decodeStatic(b)
	case TypeBaseStation:
		*m = Message{Type: t, BaseStation: new(BaseStationReport)}
		*m.BaseStation, err = decodeBaseStation(b)
	case TypeStaticB:
		*m = Message{Type: t, StaticB: new(StaticBReport)}
		*m.StaticB, err = decodeStaticB(b)
	default:
		d.Skipped++
		return false
	}
	if err != nil {
		d.BadPayload++
		return false
	}
	d.Decoded++
	return true
}
