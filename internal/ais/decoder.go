package ais

// Message is a decoded AIS message: exactly one of the payload pointers is
// non-nil, indicated by Type.
type Message struct {
	Type        int
	Position    *PositionReport    // types 1-3 and 18
	Static      *StaticReport      // type 5
	BaseStation *BaseStationReport // type 4
	StaticB     *StaticBReport     // type 24
}

// Decoder turns a stream of NMEA lines into decoded AIS messages, handling
// checksum verification and multi-sentence assembly. A Decoder is not safe
// for concurrent use; create one per input stream.
type Decoder struct {
	asm *Assembler

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

// Feed consumes one NMEA line. It returns a decoded message with ok=true
// when the line completes a supported message; ok=false means the line was
// consumed without completing one (fragment, error, or unsupported type) —
// inspect the counters for the breakdown.
func (d *Decoder) Feed(line string) (Message, bool) {
	d.Lines++
	s, err := ParseSentence(line)
	if err != nil {
		d.BadSentence++
		return Message{}, false
	}
	payload, fill, done := d.asm.Push(s)
	if !done {
		return Message{}, false
	}
	return d.decodePayload(payload, fill)
}

func (d *Decoder) decodePayload(payload string, fill int) (Message, bool) {
	b, err := unarmor(payload, fill)
	if err != nil || b.Len() < 6 {
		d.BadPayload++
		return Message{}, false
	}
	switch t := int(b.uint(0, 6)); t {
	case TypePositionA1, TypePositionA2, TypePositionA3, TypePositionB:
		p, err := decodePosition(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, Position: &p}, true
	case TypeStatic:
		s, err := decodeStatic(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, Static: &s}, true
	case TypeBaseStation:
		s, err := decodeBaseStation(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, BaseStation: &s}, true
	case TypeStaticB:
		s, err := decodeStaticB(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, StaticB: &s}, true
	default:
		d.Skipped++
		return Message{}, false
	}
}
