package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ddstore/internal/wire"
)

// FuzzDecodeGetBatch fuzzes both directions of the multi-get framing:
// decodeBatchPayload over arbitrary bytes (must never panic, over-read, or
// return parts that escape the payload), and the encode/decode pair over a
// parts list derived from the input (must round-trip exactly). The request
// side (id packing) is covered by the same derived input.
func FuzzDecodeGetBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                  // one empty part
	f.Add([]byte{3, 0, 0, 0, 9, 9, 9})         // one 3-byte part
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3}) // length overruns payload
	f.Add([]byte{1, 2})                        // truncated entry header
	f.Add(encodeBatchPayload([][]byte{{1}, {}, {2, 3}}))
	f.Add(wire.AppendIDs(nil, []int64{-1, 0, 1 << 40}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile payload: decode must stay in bounds and keep every part
		// inside the original buffer, whatever count the caller asked for.
		if parts, err := decodeBatchPayload(data, len(data)<<20); err == nil {
			if cap(parts) > maxBatchIDs {
				t.Fatalf("part list sized to %d, over the %d cap", cap(parts), maxBatchIDs)
			}
			total := 0
			for _, p := range parts {
				total += 4 + len(p)
			}
			if total != len(data) {
				t.Fatalf("decoded parts cover %d bytes of a %d-byte payload", total, len(data))
			}
		}

		// Round trip: carve data into parts, encode, decode, compare.
		var parts [][]byte
		rest := data
		for len(rest) > 0 && len(parts) < maxBatchIDs {
			n := int(rest[0]) % (len(rest) + 1)
			parts = append(parts, rest[:n])
			rest = rest[n:]
			if n == 0 {
				rest = rest[1:] // consume the length byte so carving advances
			}
		}
		back, err := decodeBatchPayload(encodeBatchPayload(parts), len(parts))
		if err != nil {
			t.Fatalf("decode(encode(parts)): %v", err)
		}
		if len(back) != len(parts) {
			t.Fatalf("round trip: %d parts, want %d", len(back), len(parts))
		}
		for i := range parts {
			if !bytes.Equal(back[i], parts[i]) {
				t.Fatalf("part %d corrupted in round trip", i)
			}
		}

		// Request side: interpret data as ids and round-trip the packing.
		count := len(data) / 8
		if count > 0 {
			ids := make([]int64, count)
			for i := range ids {
				ids[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			got := decodeBatchIDs(nil, wire.AppendIDs(nil, ids), count)
			for i := range ids {
				if got[i] != ids[i] {
					t.Fatalf("id %d corrupted: %d != %d", i, got[i], ids[i])
				}
			}
		}
	})
}

// encodeBatchPayload frames each part as u32 length + bytes: the batch
// response framing rendered flat, the reference decodeBatchPayload is
// fuzzed and tested against (the server itself writes the same bytes as a
// part list, never concatenated).
func encodeBatchPayload(parts [][]byte) []byte {
	total := 0
	for _, p := range parts {
		total += 4 + len(p)
	}
	payload := make([]byte, 0, total)
	var lenBuf [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(p)))
		payload = append(payload, lenBuf[:]...)
		payload = append(payload, p...)
	}
	return payload
}
