package ais

// The bit-at-a-time codec this package shipped until the word-at-a-time
// kernel replaced it, moved here verbatim (identifiers prefixed ref) as the
// reference the kernel is held against: FuzzDecoderFeed and the property
// tests in kernel_test.go require the same accept set, the same messages
// and the same counters on every input. Nothing outside tests calls it.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// refDecoder is the parent's Decoder over the reference parser and codec.
// Multi-sentence assembly goes through the package's Assembler: its
// eviction order changed on purpose (see TestAssemblerReusesCompletedID),
// so it is tested on its own and shared here.
type refDecoder struct {
	asm *Assembler

	Lines       int
	BadSentence int
	BadPayload  int
	Skipped     int
	Decoded     int
}

func newRefDecoder() *refDecoder { return &refDecoder{asm: NewAssembler(8)} }

func (d *refDecoder) Feed(line string) (Message, bool) {
	d.Lines++
	s, err := refParseSentence(line)
	if err != nil {
		d.BadSentence++
		return Message{}, false
	}
	payload, fill, done := d.asm.Push(&Sentence{
		Talker: s.Talker, Total: s.Total, Number: s.Number, SeqID: s.SeqID,
		Channel: s.Channel, Payload: []byte(s.Payload), FillBits: s.FillBits,
	})
	if !done {
		return Message{}, false
	}
	return d.decodePayload(string(payload), fill)
}

func (d *refDecoder) decodePayload(payload string, fill int) (Message, bool) {
	b, err := refUnarmor(payload, fill)
	if err != nil || b.Len() < 6 {
		d.BadPayload++
		return Message{}, false
	}
	switch t := int(b.uint(0, 6)); t {
	case TypePositionA1, TypePositionA2, TypePositionA3, TypePositionB:
		p, err := refDecodePosition(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, Position: p}, true
	case TypeStatic:
		s, err := refDecodeStatic(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, Static: &s}, true
	case TypeBaseStation:
		s, err := refDecodeBaseStation(b)
		if err != nil {
			d.BadPayload++
			return Message{}, false
		}
		d.Decoded++
		return Message{Type: t, BaseStation: &s}, true
	case TypeStaticB:
		s, err := refDecodeStaticB(b)
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

// refBitBuf is a big-endian bit vector backed by bytes, the wire representation
// of AIS message payloads before 6-bit armoring. Bit 0 is the most
// significant bit of byte 0, as in ITU-R M.1371 field tables.
type refBitBuf struct {
	bits []byte
	n    int // length in bits
}

// newRefBitBuf allocates a buffer of n bits, all zero.
func newRefBitBuf(n int) *refBitBuf {
	return &refBitBuf{bits: make([]byte, (n+7)/8), n: n}
}

// Len returns the length in bits.
func (b *refBitBuf) Len() int { return b.n }

// setUint writes the width low bits of v at bit offset start, MSB first.
func (b *refBitBuf) setUint(start, width int, v uint64) {
	for i := 0; i < width; i++ {
		bit := start + i
		if v>>(width-1-i)&1 == 1 {
			b.bits[bit/8] |= 1 << (7 - bit%8)
		} else {
			b.bits[bit/8] &^= 1 << (7 - bit%8)
		}
	}
}

// uint reads width bits at offset start as an unsigned integer. Reads past
// the end return the available bits zero-padded (per the AIS convention that
// truncated trailing fields read as zero).
func (b *refBitBuf) uint(start, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		bit := start + i
		if bit < b.n && b.bits[bit/8]>>(7-bit%8)&1 == 1 {
			v |= 1
		}
	}
	return v
}

// setInt writes a two's-complement signed value of the given width.
func (b *refBitBuf) setInt(start, width int, v int64) {
	b.setUint(start, width, uint64(v)&(1<<width-1))
}

// int reads width bits as a two's-complement signed integer.
func (b *refBitBuf) int(start, width int) int64 {
	v := b.uint(start, width)
	if v&(1<<(width-1)) != 0 {
		return int64(v) - (1 << width)
	}
	return int64(v)
}

// setText writes a fixed-length 6-bit text field, padding with '@'.
// Characters outside the alphabet are replaced by '@'.
func (b *refBitBuf) setText(start, chars int, s string) {
	for i := 0; i < chars; i++ {
		var v byte // '@' padding
		if i < len(s) {
			if sv, ok := sixBitValue(s[i]); ok {
				v = sv
			}
		}
		b.setUint(start+6*i, 6, uint64(v))
	}
}

// text reads a fixed-length 6-bit text field, trimming trailing '@' padding
// and spaces.
func (b *refBitBuf) text(start, chars int) string {
	out := make([]byte, 0, chars)
	for i := 0; i < chars; i++ {
		v := byte(b.uint(start+6*i, 6))
		out = append(out, sixBitChar(v))
	}
	// Trim at first '@' and trailing spaces.
	end := len(out)
	for i, c := range out {
		if c == '@' {
			end = i
			break
		}
	}
	for end > 0 && out[end-1] == ' ' {
		end--
	}
	return string(out[:end])
}

// armor encodes the bit buffer into the printable 6-bit payload alphabet,
// returning the payload string and the number of fill bits appended to pad
// to a 6-bit boundary.
func (b *refBitBuf) armor() (payload string, fillBits int) {
	nChars := (b.n + 5) / 6
	fillBits = nChars*6 - b.n
	out := make([]byte, nChars)
	for i := 0; i < nChars; i++ {
		v := byte(b.uint(i*6, 6))
		if v < 40 {
			out[i] = v + 48
		} else {
			out[i] = v + 56
		}
	}
	return string(out), fillBits
}

// refUnarmor decodes a printable payload (with fill bits) back into a bit
// buffer.
func refUnarmor(payload string, fillBits int) (*refBitBuf, error) {
	if fillBits < 0 || fillBits > 5 {
		return nil, ErrBadPayload
	}
	n := len(payload)*6 - fillBits
	if n < 0 {
		return nil, ErrBadPayload
	}
	b := newRefBitBuf(n)
	for i := 0; i < len(payload); i++ {
		c := payload[i]
		var v byte
		switch {
		case c >= 48 && c <= 87: // '0'..'W'
			v = c - 48
		case c >= 96 && c <= 119: // '`'..'w'
			v = c - 56
		default:
			return nil, ErrBadPayload
		}
		// The final character may carry fewer than 6 significant bits.
		width := 6
		if rem := n - i*6; rem < 6 {
			width = rem
			v >>= uint(6 - rem)
		}
		if width > 0 {
			b.setUint(i*6, width, uint64(v))
		}
	}
	return b, nil
}

// refSentence is one parsed NMEA 0183 AIVDM/AIVDO sentence.
type refSentence struct {
	Talker   string // "AIVDM" or "AIVDO"
	Total    int    // total sentences in this message (1..9)
	Number   int    // sentence number (1..Total)
	SeqID    int    // sequential message id for multi-sentence groups, -1 if empty
	Channel  string // radio channel, "A" or "B"
	Payload  string // armored 6-bit payload
	FillBits int    // padding bits in the last payload character
}

// refChecksum computes the NMEA XOR refChecksum over the characters between '!'
// and '*'.
func refChecksum(body string) byte {
	var c byte
	for i := 0; i < len(body); i++ {
		c ^= body[i]
	}
	return c
}

// refFormatSentence renders the sentence in NMEA wire form, including the
// leading '!' and the refChecksum.
func refFormatSentence(s refSentence) string {
	seq := ""
	if s.SeqID >= 0 {
		seq = strconv.Itoa(s.SeqID)
	}
	body := fmt.Sprintf("%s,%d,%d,%s,%s,%s,%d",
		s.Talker, s.Total, s.Number, seq, s.Channel, s.Payload, s.FillBits)
	return fmt.Sprintf("!%s*%02X", body, refChecksum(body))
}

// refParseSentence parses one NMEA AIVDM/AIVDO line. Leading/trailing
// whitespace is tolerated; the refChecksum is verified.
func refParseSentence(line string) (refSentence, error) {
	line = strings.TrimSpace(line)
	if len(line) < 10 || line[0] != '!' {
		return refSentence{}, ErrBadSentence
	}
	star := strings.LastIndexByte(line, '*')
	if star < 0 || star+3 > len(line) {
		return refSentence{}, ErrBadSentence
	}
	body := line[1:star]
	wantSum, err := strconv.ParseUint(line[star+1:star+3], 16, 8)
	if err != nil {
		return refSentence{}, ErrBadSentence
	}
	if refChecksum(body) != byte(wantSum) {
		return refSentence{}, ErrBadChecksum
	}
	fields := strings.Split(body, ",")
	if len(fields) != 7 {
		return refSentence{}, ErrBadSentence
	}
	if fields[0] != "AIVDM" && fields[0] != "AIVDO" {
		return refSentence{}, ErrBadSentence
	}
	total, err := strconv.Atoi(fields[1])
	if err != nil || total < 1 || total > 9 {
		return refSentence{}, ErrBadSentence
	}
	number, err := strconv.Atoi(fields[2])
	if err != nil || number < 1 || number > total {
		return refSentence{}, ErrBadSentence
	}
	seq := -1
	if fields[3] != "" {
		seq, err = strconv.Atoi(fields[3])
		if err != nil || seq < 0 || seq > 9 {
			return refSentence{}, ErrBadSentence
		}
	}
	fill, err := strconv.Atoi(fields[6])
	if err != nil || fill < 0 || fill > 5 {
		return refSentence{}, ErrBadSentence
	}
	return refSentence{
		Talker:   fields[0],
		Total:    total,
		Number:   number,
		SeqID:    seq,
		Channel:  fields[4],
		Payload:  fields[5],
		FillBits: fill,
	}, nil
}

// refDecodePosition decodes a position payload of type 1-3 or 18.
func refDecodePosition(b *refBitBuf) (PositionReport, error) {
	if b.Len() < 143 {
		return PositionReport{}, ErrShortMessage
	}
	msgType := int(b.uint(0, 6))
	p := PositionReport{
		Type:   msgType,
		MMSI:   uint32(b.uint(8, 30)),
		Status: StatusNotDefined,
	}
	var sogRaw, cogRaw, hdgRaw, tsRaw uint64
	var lonRaw, latRaw int64
	switch msgType {
	case TypePositionA1, TypePositionA2, TypePositionA3:
		p.Status = NavStatus(b.uint(38, 4))
		sogRaw = b.uint(50, 10)
		lonRaw = b.int(61, 28)
		latRaw = b.int(89, 27)
		cogRaw = b.uint(116, 12)
		hdgRaw = b.uint(128, 9)
		tsRaw = b.uint(137, 6)
	case TypePositionB:
		sogRaw = b.uint(46, 10)
		lonRaw = b.int(57, 28)
		latRaw = b.int(85, 27)
		cogRaw = b.uint(112, 12)
		hdgRaw = b.uint(124, 9)
		tsRaw = b.uint(133, 6)
	default:
		return PositionReport{}, ErrWrongType
	}

	p.SOG = math.NaN()
	if sogRaw != SOGNotAvailable {
		p.SOG = float64(sogRaw) / 10
	}
	p.Lon = math.NaN()
	if lonRaw != LonNotAvailable {
		p.Lon = float64(lonRaw) / 600000
	}
	p.Lat = math.NaN()
	if latRaw != LatNotAvailable {
		p.Lat = float64(latRaw) / 600000
	}
	p.COG = math.NaN()
	if cogRaw != COGNotAvailable {
		p.COG = float64(cogRaw) / 10
	}
	p.Heading = math.NaN()
	if hdgRaw != HeadingNotAvailable {
		p.Heading = float64(hdgRaw)
	}
	p.Timestamp = int(tsRaw)
	return p, nil
}

// refDecodeStatic decodes a type-5 payload.
func refDecodeStatic(b *refBitBuf) (StaticReport, error) {
	if b.Len() < 420 {
		return StaticReport{}, ErrShortMessage
	}
	if b.uint(0, 6) != TypeStatic {
		return StaticReport{}, ErrWrongType
	}
	s := StaticReport{
		MMSI:        uint32(b.uint(8, 30)),
		IMO:         uint32(b.uint(40, 30)),
		CallSign:    b.text(70, 7),
		Name:        b.text(112, 20),
		ShipType:    ShipType(b.uint(232, 8)),
		DimBow:      int(b.uint(240, 9)),
		DimStern:    int(b.uint(249, 9)),
		DimPort:     int(b.uint(258, 6)),
		DimStarb:    int(b.uint(264, 6)),
		ETAMonth:    int(b.uint(274, 4)),
		ETADay:      int(b.uint(278, 5)),
		ETAHour:     int(b.uint(283, 5)),
		ETAMinute:   int(b.uint(288, 6)),
		Destination: b.text(302, 20),
	}
	draughtRaw := b.uint(294, 8)
	s.Draught = math.NaN()
	if draughtRaw > 0 {
		s.Draught = float64(draughtRaw) / 10
	}
	return s, nil
}

// refDecodeBaseStation decodes a type-4 payload.
func refDecodeBaseStation(b *refBitBuf) (BaseStationReport, error) {
	if b.Len() < 134 {
		return BaseStationReport{}, ErrShortMessage
	}
	r := BaseStationReport{MMSI: uint32(b.uint(8, 30))}
	year := int(b.uint(38, 14))
	month := int(b.uint(52, 4))
	day := int(b.uint(56, 5))
	hour := int(b.uint(61, 5))
	minute := int(b.uint(66, 6))
	second := int(b.uint(72, 6))
	if year > 0 && month >= 1 && month <= 12 && day >= 1 && day <= 31 {
		r.Time = time.Date(year, time.Month(month), day, hour, minute, second, 0, time.UTC)
	}
	lonRaw := b.int(79, 28)
	latRaw := b.int(107, 27)
	r.Lon = math.NaN()
	if lonRaw != LonNotAvailable {
		r.Lon = float64(lonRaw) / 600000
	}
	r.Lat = math.NaN()
	if latRaw != LatNotAvailable {
		r.Lat = float64(latRaw) / 600000
	}
	return r, nil
}

// refDecodeStaticB decodes a type-24 payload.
func refDecodeStaticB(b *refBitBuf) (StaticBReport, error) {
	if b.Len() < 40 {
		return StaticBReport{}, ErrShortMessage
	}
	r := StaticBReport{
		MMSI: uint32(b.uint(8, 30)),
		Part: int(b.uint(38, 2)),
	}
	switch r.Part {
	case 0:
		if b.Len() < 160 {
			return StaticBReport{}, ErrShortMessage
		}
		r.Name = b.text(40, 20)
	case 1:
		if b.Len() < 162 {
			return StaticBReport{}, ErrShortMessage
		}
		r.ShipType = ShipType(b.uint(40, 8))
		r.CallSign = b.text(90, 7)
		r.DimBow = int(b.uint(132, 9))
		r.DimStern = int(b.uint(141, 9))
		r.DimPort = int(b.uint(150, 6))
		r.DimStarb = int(b.uint(156, 6))
	default:
		return StaticBReport{}, ErrBadPayload
	}
	return r, nil
}
