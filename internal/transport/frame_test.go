package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"

	"ddstore/internal/vtime"
)

// recordConn keeps every Write a frame makes. It is not a *net.TCPConn, so
// net.Buffers writes each iovec with a Write of its own.
type recordConn struct {
	net.Conn
	writes [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// checkFrame runs writeFrame over parts (or over err) and holds the frame
// to its reference: the head, then bytes.Join(parts), with the length and
// crc32.ChecksumIEEE of that payload; one Write per non-empty part behind
// the head, less those that fit in the head's spare room; and every part
// unchanged, since parts alias packed shards and cache entries.
func checkFrame(t *testing.T, parts [][]byte, err error) {
	t.Helper()
	want := bytes.Join(parts, nil)
	status, sent := byte(statusOK), parts
	if err != nil {
		status, want = statusError, []byte(err.Error())
		sent = [][]byte{want}
	}
	// Leading parts ride in the head's buffer while they fit in its room.
	writes, room := 1, 4
	for _, p := range sent {
		switch {
		case len(p) == 0:
		case writes == 1 && len(p) <= room:
			room -= len(p)
		default:
			writes++
		}
	}
	head := make([]byte, respHeaderSize)
	head[0] = status
	binary.LittleEndian.PutUint32(head[1:], uint32(len(want)))
	binary.LittleEndian.PutUint32(head[5:], crc32.ChecksumIEEE(want))
	before := make([][]byte, len(parts))
	for i, p := range parts {
		before[i] = bytes.Clone(p)
	}

	conn := &recordConn{}
	st := &connState{parts: append([][]byte(nil), parts...)}
	got, werr := (&Server{}).writeFrame(conn, st, err)
	if werr != nil || got != status {
		t.Fatalf("writeFrame: status %d, %v; want status %d", got, werr, status)
	}
	frame := bytes.Join(conn.writes, nil)
	if !bytes.Equal(frame, append(head, want...)) {
		t.Fatalf("%d-byte frame differs from the %d-byte reference", len(frame), len(head)+len(want))
	}
	if len(conn.writes) != writes {
		t.Fatalf("frame went out in %d writes, want %d", len(conn.writes), writes)
	}
	for i, p := range parts {
		if !bytes.Equal(p, before[i]) {
			t.Fatalf("part %d changed under writeFrame", i)
		}
	}
}

// frameBacking is random bytes to cut parts from at any offset.
func frameBacking(n int) []byte {
	rng := vtime.NewRNG(11)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// TestWriteFramePinsTheBytes pins the frame writeFrame sends over part
// layouts the look-ahead and the head's spare room both care about.
func TestWriteFramePinsTheBytes(t *testing.T) {
	back := frameBacking(8*frameLookAhead + 8192)
	cut := func(off, n int) []byte { return back[off : off+n : off+n] }
	odd := [][]byte{}
	off := 1
	for _, n := range []int{1, 63, 64, 65, 4095, 4096} {
		odd = append(odd, cut(off, n))
		off += n + 2
	}
	// A shuffled batch's shape, several windows long: length prefixes and
	// 1,400-byte samples from scattered odd offsets, then one part larger
	// than the window.
	var long [][]byte
	prefix := []byte{0x78, 0x05, 0, 0}
	for i := 0; 1400*i < 4*frameLookAhead; i++ {
		long = append(long, prefix, cut((i*7919)%(6*frameLookAhead)|1, 1400))
	}
	long = append(long, cut(3, 2*frameLookAhead+5))

	cases := []struct {
		name  string
		parts [][]byte
		err   error
	}{
		{name: "no parts"},
		{name: "empty parts", parts: [][]byte{{}, nil, {}}},
		{name: "first prefix merged into the head", parts: [][]byte{prefix, cut(5, 1400)}},
		{name: "short first part after empty ones", parts: [][]byte{nil, cut(9, 3), cut(13, 4), cut(17, 5)}},
		{name: "first part past the head's room", parts: [][]byte{cut(21, 5), prefix}},
		{name: "odd offsets", parts: odd},
		{name: "several windows", parts: long},
		{name: "error frame", parts: [][]byte{prefix, cut(5, 1400)}, err: errors.New("sample 9 outside chunk [0,8)")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFrame(t, c.parts, c.err) })
	}
}

// FuzzWriteFrame cuts a part layout out of the input — each part an offset
// and a length into random backing bytes — and holds writeFrame's frame to
// the same reference.
func FuzzWriteFrame(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 0x78, 0x05, 0, 3, 0xff, 0xff, 0})
	f.Add([]byte{1, 1, 0x3f, 0, 2, 0x40, 0, 3, 0x41, 0})
	f.Add([]byte{0, 0, 0, 0, 7, 0, 0x10})
	back := frameBacking(1<<20 + 256)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var err error
		if data[0]&1 != 0 {
			err = errors.New("fuzzed failure")
		}
		var parts [][]byte
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			off := int(data[0])
			n := int(binary.LittleEndian.Uint16(data[1:])) << (data[0] >> 6)
			parts = append(parts, back[off:off+n:off+n])
		}
		checkFrame(t, parts, err)
	})
}
