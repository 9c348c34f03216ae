package ais

import (
	"bytes"
	"encoding/hex"
	"strconv"
)

// Sentence is one parsed NMEA 0183 AIVDM/AIVDO sentence.
type Sentence struct {
	Talker   string // "AIVDM" or "AIVDO"
	Total    int    // total sentences in this message (1..9)
	Number   int    // sentence number (1..Total)
	SeqID    int    // sequential message id for multi-sentence groups, -1 if empty
	Channel  string // radio channel, "A" or "B"
	Payload  []byte // armored 6-bit payload; ParseSentence aliases its input
	FillBits int    // padding bits in the last payload character
}

// FormatSentence renders the sentence in NMEA wire form, including the
// leading '!' and the checksum.
func FormatSentence(s Sentence) string {
	dst := append(make([]byte, 0, 24+len(s.Payload)), '!')
	dst = append(dst, s.Talker...)
	dst = strconv.AppendInt(append(dst, ','), int64(s.Total), 10)
	dst = strconv.AppendInt(append(dst, ','), int64(s.Number), 10)
	dst = append(dst, ',')
	if s.SeqID >= 0 {
		dst = strconv.AppendInt(dst, int64(s.SeqID), 10)
	}
	dst = append(append(dst, ','), s.Channel...)
	dst = append(append(dst, ','), s.Payload...)
	dst = strconv.AppendInt(append(dst, ','), int64(s.FillBits), 10)
	var sum byte
	for _, c := range dst[1:] {
		sum ^= c
	}
	const hex = "0123456789ABCDEF"
	return string(append(dst, '*', hex[sum>>4], hex[sum&15]))
}

// ParseSentence parses one NMEA AIVDM/AIVDO line into s, in place: the
// feed drivers keep one Sentence a line and copy none. Leading/trailing
// whitespace is tolerated; the checksum is verified. The payload aliases
// line. On error the fields of s are unspecified.
func ParseSentence(line []byte, s *Sentence) error {
	line = bytes.TrimSpace(line)
	if len(line) < 10 || line[0] != '!' {
		return ErrBadSentence
	}
	star := bytes.LastIndexByte(line, '*')
	if star < 0 || star+3 > len(line) {
		return ErrBadSentence
	}
	var want [1]byte
	if _, err := hex.Decode(want[:], line[star+1:star+3]); err != nil {
		return ErrBadSentence
	}
	// One pass over the body: the XOR checksum and the field boundaries.
	body := line[1:star]
	var sum byte
	var comma [6]int
	commas := 0
	for i, c := range body {
		sum ^= c
		if c == ',' {
			if commas < len(comma) {
				comma[commas] = i
			}
			commas++
		}
	}
	if sum != want[0] {
		return ErrBadChecksum
	}
	if commas != len(comma) {
		return ErrBadSentence
	}
	switch string(body[:comma[0]]) {
	case "AIVDM":
		s.Talker = "AIVDM"
	case "AIVDO":
		s.Talker = "AIVDO"
	default:
		return ErrBadSentence
	}
	s.Channel = string(body[comma[3]+1 : comma[4]])
	s.Payload = body[comma[4]+1 : comma[5]]
	var ok bool
	if s.Total, ok = countField(body[comma[0]+1 : comma[1]]); !ok || s.Total < 1 {
		return ErrBadSentence
	}
	if s.Number, ok = countField(body[comma[1]+1 : comma[2]]); !ok || s.Number < 1 || s.Number > s.Total {
		return ErrBadSentence
	}
	s.SeqID = -1
	if seq := body[comma[2]+1 : comma[3]]; len(seq) > 0 {
		if s.SeqID, ok = countField(seq); !ok {
			return ErrBadSentence
		}
	}
	if s.FillBits, ok = countField(body[comma[5]+1:]); !ok || s.FillBits > 5 {
		return ErrBadSentence
	}
	return nil
}

// countField parses one of the sentence's small decimal fields, reporting
// whether it is a number in 0..9. All of them are a single digit on the
// wire; anything else strconv.Atoi reads as such a number ("+1", "01") is
// accepted too.
func countField(f []byte) (int, bool) {
	if len(f) == 1 && f[0] >= '0' && f[0] <= '9' {
		return int(f[0] - '0'), true
	}
	n, err := strconv.Atoi(string(f))
	return n, err == nil && n >= 0 && n <= 9
}

// Assembler reassembles multi-sentence AIS messages. Feed sentences in
// arrival order with Push; when a message completes, Push returns its
// payload bits. Single-sentence messages complete immediately. The oldest
// incomplete group is evicted when a new one would make more than
// maxPending in flight.
type Assembler struct {
	groups     [11]group // by SeqID+1; slot 0 holds groups sent without an id
	opened     uint64    // groups opened so far; stamps their age
	maxPending int
}

// group is one multi-sentence message being collected.
type group struct {
	payload []byte // the assembler's own copy of the fragments so far; storage is reused
	total   int
	held    int    // fragments held; 0 marks the slot free
	age     uint64 // Assembler.opened when the group was opened
}

// NewAssembler returns an assembler that holds at most maxPending incomplete
// multi-sentence groups (values below 1 default to 8).
func NewAssembler(maxPending int) *Assembler {
	if maxPending < 1 {
		maxPending = 8
	}
	return &Assembler{maxPending: maxPending}
}

// Push feeds one sentence. It returns the completed message's payload and
// fill bits with done=true when the sentence completes a message, and
// done=false while a multi-sentence group is still accumulating. The
// payload is s.Payload itself for a single-sentence message and the
// assembler's buffer otherwise: it is valid until the next Push.
func (a *Assembler) Push(s *Sentence) (payload []byte, fillBits int, done bool) {
	if s.Total == 1 {
		return s.Payload, s.FillBits, true
	}
	if s.SeqID < -1 || s.SeqID+1 >= len(a.groups) {
		return nil, 0, false
	}
	g := &a.groups[s.SeqID+1]
	if s.Number == 1 {
		// The first sentence opens a group, replacing any stale state
		// under the same id (which keeps its place in the eviction order).
		if g.held == 0 {
			live, oldest := 0, g
			for i := range a.groups {
				if o := &a.groups[i]; o.held > 0 {
					live++
					if oldest.held == 0 || o.age < oldest.age {
						oldest = o
					}
				}
			}
			if live >= a.maxPending {
				oldest.held = 0
			}
			a.opened++
			g.age = a.opened
		}
		g.payload, g.total, g.held = append(g.payload[:0], s.Payload...), s.Total, 1
		return nil, 0, false
	}
	if g.held != s.Number-1 || g.total != s.Total {
		// Out-of-order or mismatched fragment: drop the group.
		g.held = 0
		return nil, 0, false
	}
	g.payload = append(g.payload, s.Payload...)
	g.held++
	if s.Number == s.Total {
		g.held = 0
		return g.payload, s.FillBits, true
	}
	return nil, 0, false
}

// EncodeSentences armors the message bits and splits them into one or more
// AIVDM sentences. Messages up to 60 payload characters fit one sentence;
// longer payloads are split at 60 characters (the practical VHF limit).
// seqID is used only for multi-sentence output.
func EncodeSentences(b *bitBuf, channel string, seqID int) []string {
	payload, fill := b.armor()
	const maxChars = 60
	total := max(1, (len(payload)+maxChars-1)/maxChars)
	if total == 1 {
		seqID = -1
	}
	out := make([]string, 0, total)
	for i := 0; i < total; i++ {
		lo := i * maxChars
		hi := lo + maxChars
		f := 0
		if hi >= len(payload) {
			hi = len(payload)
			f = fill
		}
		out = append(out, FormatSentence(Sentence{
			Talker: "AIVDM", Total: total, Number: i + 1, SeqID: seqID,
			Channel: channel, Payload: payload[lo:hi], FillBits: f,
		}))
	}
	return out
}
