package transport

import (
	"encoding/binary"
	"fmt"
)

// Multi-get framing. A batch request is the fixed 17-byte header
// (op=opGetBatch, a=count, b=reserved) followed by count little-endian
// u64 sample ids. The response payload is count length-prefixed entries:
// u32 byte length, then that many encoded-graph bytes, in request order.
// The whole response still rides the standard 9-byte head, so the existing
// CRC32 checksum, deadline, and retry machinery covers batches unchanged.

// maxBatchIDs bounds how many ids one batch request may carry, so a
// hostile count cannot make the server read or allocate without limit
// (4096 ids = a 32 KiB request body).
const maxBatchIDs = 4096

// decodeBatchIDs unpacks a batch request body onto dst (the connection's
// id scratch). The body length has already been fixed by the validated
// count, so this cannot fail.
func decodeBatchIDs(dst []int64, body []byte, count int) []int64 {
	for i := 0; i < count; i++ {
		dst = append(dst, int64(binary.LittleEndian.Uint64(body[8*i:])))
	}
	return dst
}

// decodeBatchPayload splits a batch response back into its parts. Every
// length is bounds-checked against the remaining bytes and the entry count
// against maxBatchIDs, so a corrupt or hostile payload cannot cause an
// out-of-range read or unbounded allocation. The part list is sized once
// from want, the number of parts the caller asked the server for (itself
// capped at maxBatchIDs), never from the payload. Parts alias the payload
// (three-index slicing keeps appends from bleeding between parts).
func decodeBatchPayload(payload []byte, want int) ([][]byte, error) {
	parts := make([][]byte, 0, min(want, maxBatchIDs))
	rest := payload
	for len(rest) > 0 {
		if len(parts) >= maxBatchIDs {
			return nil, fmt.Errorf("transport: batch response exceeds %d entries", maxBatchIDs)
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("transport: truncated batch entry header (%d bytes left)", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("transport: batch entry claims %d bytes, %d remain", n, len(rest))
		}
		parts = append(parts, rest[:n:n])
		rest = rest[n:]
	}
	return parts, nil
}
