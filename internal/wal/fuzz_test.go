package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"sampleview/internal/record"
)

// encodeFrame builds one wire frame around payload (LSN | op | record).
func encodeFrame(lsn uint64, op byte, rec record.Record) []byte {
	payload := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(payload[0:8], lsn)
	payload[8] = op
	rec.Marshal(payload[9:])
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	return frame
}

// FuzzWALReplay feeds arbitrary segment images to the replay decoder. The
// decoder must never panic or over-read, must decode a clean prefix, and
// must report a clean offset that lands exactly on a frame boundary of
// whatever it decoded.
func FuzzWALReplay(f *testing.F) {
	rec := record.Record{Key: 7, Amount: -3, Seq: 42}
	one := encodeFrame(1, opInsert, rec)
	del := encodeFrame(2, opDelete, rec)
	f.Add([]byte{})
	f.Add(one)
	f.Add(append(append([]byte{}, one...), del...))
	f.Add(append(append([]byte{}, one...), del[:11]...)) // torn tail
	bad := append([]byte{}, one...)
	bad[frameHeader+3] ^= 0x40 // payload bit flip: checksum mismatch
	f.Add(bad)
	short := append([]byte{}, one...)
	binary.LittleEndian.PutUint32(short[0:4], 1<<20) // implausible length
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, clean, err := replaySegment(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if err == nil && clean != len(data) {
			t.Fatalf("nil error but clean %d != len %d", clean, len(data))
		}
		// Every decoded op must round out of a well-formed frame: replaying
		// just the clean prefix must yield the same ops and no error.
		ops2, clean2, err2 := replaySegment(data[:clean])
		if err2 != nil || clean2 != clean || len(ops2) != len(ops) {
			t.Fatalf("clean prefix does not replay cleanly: err=%v clean=%d/%d ops=%d/%d",
				err2, clean2, clean, len(ops2), len(ops))
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("op %d differs between full and prefix replay", i)
			}
		}
	})
}
