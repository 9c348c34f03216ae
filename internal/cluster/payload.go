package cluster

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
)

// The shuffle payload carries records and statics in the program's own
// codecs, the ones the WAL writes: the frame's records are one record log
// in frame order (pipeline.AppendRecordLog), each static a vessel static
// (pipeline.AppendVesselInfo). Layout, version 2:
//
//	version u8 | nstat u32 | nstat × (key u32 | static) | record log
//
// The log takes the rest of the payload; the frame header's CRC-covered
// record count says how many records it holds. Statics are sorted by key
// (MMSI), so the same content always encodes to the same bytes, and the
// decoder refuses what the encoder would not write (unsorted keys, a
// non-canonical static or log): decode → encode is the identity on what
// it accepts. Frames that stay inside the worker are never encoded.
const payloadVersion = 2

// minLogRecord is the fewest bytes a record takes in a record log — a
// header, a time and five fields of one byte each — so a log of n bytes
// holds at most n/minLogRecord records.
const minLogRecord = 7

// peerPayload is the content of one shuffle frame. Statics ride the
// shuffle rather than a coordinator broadcast: a vessel hashes to exactly
// one bucket, so merging per-bucket statics in ascending section order
// reconstructs exactly the entries a global last-wins merge would hand
// that bucket's reduce.
type peerPayload struct {
	Records []model.PositionRecord
	Statics map[uint32]model.VesselInfo
}

// appendPayload appends p's encoding to b.
func appendPayload(b []byte, p *peerPayload) []byte {
	b = binary.LittleEndian.AppendUint32(append(b, payloadVersion), uint32(len(p.Statics)))
	for _, k := range slices.Sorted(maps.Keys(p.Statics)) {
		b = pipeline.AppendVesselInfo(binary.LittleEndian.AppendUint32(b, k), p.Statics[k])
	}
	return pipeline.AppendRecordLog(b, p.Records...)
}

// decodePayload decodes a payload appendPayload wrote of nrec records,
// allocating no more than the input's length bounds.
func decodePayload(b []byte, nrec int) (*peerPayload, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("cluster: shuffle payload truncated")
	}
	if b[0] != payloadVersion {
		return nil, fmt.Errorf("cluster: shuffle payload version %d; coordinator and workers must run the same build", b[0])
	}
	p := &peerPayload{}
	n := binary.LittleEndian.Uint32(b[1:])
	b = b[5:]
	prev := int64(-1)
	for range n {
		if len(b) < 4 {
			return nil, fmt.Errorf("cluster: shuffle payload truncated")
		}
		k := binary.LittleEndian.Uint32(b)
		v, used, err := pipeline.DecodeVesselInfo(b[4:])
		if err != nil {
			return nil, fmt.Errorf("cluster: shuffle payload static %d: %w", k, err)
		}
		if int64(k) <= prev {
			return nil, fmt.Errorf("cluster: shuffle payload static %d: key out of order", k)
		}
		if p.Statics == nil {
			p.Statics = make(map[uint32]model.VesselInfo)
		}
		prev, p.Statics[k], b = int64(k), v, b[4+used:]
	}
	if len(b) > 0 {
		var err error
		if p.Records, err = pipeline.DecodeRecordLog(make([]model.PositionRecord, 0, min(nrec, len(b)/minLogRecord)), b); err != nil {
			return nil, fmt.Errorf("cluster: shuffle payload: %w", err)
		}
	}
	return p, nil
}

// seal encodes the frame's content and stamps the CRC, the first time the
// frame is about to cross a socket; it reports whether this call did it.
// Sealing drops the records, so a frame retained for a resend holds its
// encoded bytes only. Later calls — a reconnect replay, a resend to a
// bucket's new owner — and frames that arrived sealed find nothing to do.
func (f *peerFrame) seal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.content == nil {
		return false
	}
	// AIS-decoded reports take ~19 B a record in a log of a frame's.
	f.Payload = appendPayload(make([]byte, 0, 64+20*len(f.content.Records)), f.content)
	f.CRC, f.content = f.digest(), nil
	return true
}

// open verifies the CRC and decodes the payload. A nil error means the
// frame is exactly what the sender sealed.
func (f *peerFrame) open() (*peerPayload, error) {
	if f.CRC != f.digest() {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: CRC mismatch", f.TaskID, f.Bucket, f.Seq)
	}
	p, err := decodePayload(f.Payload, f.Records)
	if err == nil && len(p.Records) != f.Records {
		p, err = nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: %d records, header says %d",
			f.TaskID, f.Bucket, f.Seq, len(p.Records), f.Records)
	}
	return p, err
}
