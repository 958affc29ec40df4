package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ddstore/internal/obs/tracectx"
	"ddstore/internal/wire"
)

// fixedOwnership is a ShardMapSource that owns everything or nothing.
type fixedOwnership struct{ owns bool }

func (fixedOwnership) Generation() uint64       { return 7 }
func (o fixedOwnership) Owns(int64) bool        { return o.owns }
func (fixedOwnership) Encoded() ([]byte, error) { return []byte("current-map"), nil }

// refuseConns is an Admission that refuses every connection.
type refuseConns struct{}

func (refuseConns) AdmitConn(string) (ConnGate, error) {
	return nil, fmt.Errorf("no conn slots: %w", ErrOverloaded)
}

// refuseFirst is an Admission whose gates shed the first request they are
// asked to admit and let the rest through.
type refuseFirst struct{}

func (refuseFirst) AdmitConn(string) (ConnGate, error) { return &refuseFirstGate{}, nil }

type refuseFirstGate struct{ admits int }

func (g *refuseFirstGate) Hello(string) error { return nil }
func (g *refuseFirstGate) Close()             {}
func (g *refuseFirstGate) Admit(Class) (func(int64), error) {
	if g.admits++; g.admits == 1 {
		return nil, fmt.Errorf("queue full: %w", ErrOverloaded)
	}
	return func(int64) {}, nil
}

// opFixture is what the alignment test knows about one spelling of an op
// that the table cannot tell it: how to spell a valid request and one with
// a bad header or count, whether the op reads samples (and so can be
// answered stale), whether it is flagged as traced, and the data a valid
// request must return. name labels a flagged spelling after the retired op
// it replaced, and the retired op's own fixture by its old name; it is
// empty for an op's plain spelling.
type opFixture struct {
	name       string
	valid, bad []byte // full request frames; bad is nil when the op's header holds nothing to get wrong
	reads      bool
	traced     bool
	want       []byte // expected payload of valid (before any timing trailer); nil = not checked
}

// TestStreamStaysAligned walks every row of the op table, in each of its
// flag spellings, through every way a request can end — served, rejected
// for a bad header or count (on an admitted and on a refused connection),
// refused by admission (at the connection and at the request), answered
// stale — on a single connection, and asserts what the table promises
// about the connection afterwards: the next request on it is answered
// correctly, or the connection is closed exactly when a counted op's
// count was out of bounds.
func TestStreamStaysAligned(t *testing.T) {
	chunk := wireChunk(10, 20)
	frame := func(op byte, a, b int64, body ...[]byte) []byte {
		return bytes.Join(append([][]byte{reqBytes(op, a, b)}, body...), nil)
	}
	ctx := tracectx.New(true).AppendTo(nil)
	ids := wire.AppendIDs(nil, []int64{12, 17})
	sample := func(id int64) []byte { return chunk.Encoded[id-chunk.Lo] }
	pair := encodeBatchPayload([][]byte{sample(12), sample(17)})
	one := encodeBatchPayload([][]byte{sample(12)})
	fixtures := map[byte][]opFixture{
		// A retired op stands in for every op the table does not know: it is
		// answered with an error, neither admitted nor served, and must
		// leave the stream aligned too.
		1: {{name: "meta", valid: frame(1, 0, 0)}},
		opGetBatch: {
			{valid: frame(opGetBatch, 2, 0, ids), bad: frame(opGetBatch, maxBatchIDs+1, 0), reads: true, want: pair},
			{name: "getbatch-traced", valid: frame(opGetBatch, 2, flagTraced, ctx, ids), bad: frame(opGetBatch, 0, flagTraced), reads: true, traced: true, want: pair},
			{name: "get", valid: frame(opGetBatch, 1, flagLookup, ids[:8]), bad: frame(opGetBatch, -1, flagLookup), reads: true, want: one},
			{name: "get-traced", valid: frame(opGetBatch, 1, flagTraced|flagLookup, ctx, ids[:8]), bad: frame(opGetBatch, maxBatchIDs+1, flagTraced|flagLookup),
				reads: true, traced: true, want: one},
		},
		opHello:    {{valid: frame(opHello, 5, 0, []byte("alpha")), bad: frame(opHello, 0, 0)}},
		opShardMap: {{valid: frame(opShardMap, 0, 0), want: []byte("current-map")}},
	}
	type outcome struct {
		status byte
		closed bool // the server drops the connection after answering
		probe  byte // otherwise: the status a follow-up shardmap request gets
	}
	// served is the status of a request the server reads through to the
	// end: an error for an op the table does not know.
	served := func(sp *opSpec) byte {
		if sp.name == "" {
			return statusError
		}
		return statusOK
	}
	scenarios := []struct {
		name    string
		opts    ServerOptions
		request func(f opFixture) []byte
		// expect derives the promised outcome from the table row alone
		// (plus whether the op reads samples).
		expect func(sp *opSpec, f opFixture) outcome
	}{
		{
			name:    "valid",
			opts:    ServerOptions{ShardMap: fixedOwnership{owns: true}},
			request: func(f opFixture) []byte { return f.valid },
			expect:  func(sp *opSpec, _ opFixture) outcome { return outcome{status: served(sp)} },
		},
		{
			name:    "bad header or count",
			request: func(f opFixture) []byte { return f.bad },
			expect: func(sp *opSpec, _ opFixture) outcome {
				return outcome{status: statusError, closed: sp.unit > 0}
			},
		},
		{
			name:    "bad header or count on a refused connection",
			opts:    ServerOptions{Admission: refuseConns{}},
			request: func(f opFixture) []byte { return f.bad },
			expect: func(sp *opSpec, _ opFixture) outcome {
				return outcome{status: statusOverloaded, closed: sp.unit > 0, probe: statusOverloaded}
			},
		},
		{
			name:    "connection refused by admission",
			opts:    ServerOptions{Admission: refuseConns{}},
			request: func(f opFixture) []byte { return f.valid },
			expect: func(*opSpec, opFixture) outcome {
				return outcome{status: statusOverloaded, probe: statusOverloaded}
			},
		},
		{
			name:    "request refused by admission",
			opts:    ServerOptions{Admission: refuseFirst{}, ShardMap: fixedOwnership{owns: true}},
			request: func(f opFixture) []byte { return f.valid },
			expect: func(sp *opSpec, _ opFixture) outcome {
				if sp.control || sp.name == "" {
					// Control and unknown ops bypass admission, so the
					// gate's single refusal is still unspent when the probe
					// arrives.
					return outcome{status: served(sp), probe: statusOverloaded}
				}
				return outcome{status: statusOverloaded}
			},
		},
		{
			name:    "stale generation",
			opts:    ServerOptions{ShardMap: fixedOwnership{owns: false}},
			request: func(f opFixture) []byte { return f.valid },
			expect: func(sp *opSpec, f opFixture) outcome {
				if f.reads {
					return outcome{status: statusStaleGen}
				}
				return outcome{status: served(sp)}
			},
		},
	}

	// Every spelling of every op the table knows, and of the retired op,
	// labelled for its subtests.
	type spelling struct {
		sp    *opSpec
		label string
		f     opFixture
	}
	var spellings []spelling
	for op := 0; op < 256; op++ {
		sp := &opTable[op]
		if sp.name != "" && fixtures[byte(op)] == nil {
			t.Fatalf("op %d (%s) has no test fixture", op, sp.name)
		}
		if sp.name == "" && fixtures[byte(op)] != nil && !slices.Contains(retiredOps, byte(op)) {
			t.Fatalf("op %d has a test fixture but is neither in the table nor retired", op)
		}
		for _, f := range fixtures[byte(op)] {
			label := f.name
			if label == "" {
				label = sp.name
			}
			spellings = append(spellings, spelling{sp, label, f})
		}
	}
	for _, sl := range spellings {
		sp, f := sl.sp, sl.f
		for _, sc := range scenarios {
			req := sc.request(f)
			if req == nil {
				continue
			}
			t.Run(sl.label+"/"+sc.name, func(t *testing.T) {
				srv, err := ServeWith("127.0.0.1:0", chunk, sc.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))

				want := sc.expect(sp, f)
				status, payload := exchangeRaw(t, conn, req)
				if status != want.status {
					t.Fatalf("status = %d (%q), want %d", status, payload, want.status)
				}
				switch {
				case status == statusStaleGen && string(payload) != "current-map":
					t.Fatalf("stale answer carries %q, want the current map", payload)
				case status == statusOK && sc.name == "valid" && f.want != nil:
					if f.traced {
						n, _, err := parseTimingTrailer(payload)
						if err != nil {
							t.Fatalf("traced answer: %v", err)
						}
						payload = payload[:n]
					}
					if !bytes.Equal(payload, f.want) {
						t.Fatalf("payload = %d bytes, want the %d requested bytes", len(payload), len(f.want))
					}
				}

				// What the table says about the connection now.
				if _, err := conn.Write(reqBytes(opShardMap, 0, 0)); err != nil && !want.closed {
					t.Fatalf("write follow-up: %v", err)
				}
				var head [respHeaderSize]byte
				_, err = io.ReadFull(conn, head[:])
				if want.closed {
					if err == nil {
						t.Fatalf("connection still answering (status %d) after an out-of-bounds count", head[0])
					}
					return
				}
				if err != nil {
					t.Fatalf("follow-up on the same connection: %v", err)
				}
				mb := make([]byte, binary.LittleEndian.Uint32(head[1:]))
				if _, err := io.ReadFull(conn, mb); err != nil {
					t.Fatalf("follow-up payload: %v", err)
				}
				if head[0] != want.probe {
					t.Fatalf("follow-up status = %d (%q), want %d: the stream lost alignment", head[0], mb, want.probe)
				}
				if cur, _ := srv.opts.ShardMap.Encoded(); want.probe == statusOK && !bytes.Equal(mb, cur) {
					t.Fatalf("follow-up shardmap payload = %q, want the server's map %q", mb, cur)
				}
			})
		}
	}
}

// exchangeRaw writes one pre-framed request and reads back one response.
func exchangeRaw(t *testing.T, conn net.Conn, req []byte) (status byte, payload []byte) {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatalf("write request: %v", err)
	}
	var head [respHeaderSize]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		t.Fatalf("read response head: %v", err)
	}
	payload = make([]byte, binary.LittleEndian.Uint32(head[1:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("read response payload: %v", err)
	}
	return head[0], payload
}

// retiredOps are the op numbers the wire no longer speaks: each is answered
// like any unknown op, and none may be given a row again.
var retiredOps = []byte{1, 2, 3, 7, 8}

// flagNames are the request flags as DESIGN.md §6e names them.
var flagNames = []struct {
	bit  int64
	name string
}{{flagTraced, "traced"}, {flagLookup, "lookup"}}

// TestDesignDocOpTable keeps the wire-op table in DESIGN.md §6e equal to
// opTable: every row of the code renders to exactly one line of the
// document, and the document has no row the code does not. No retired op
// has a row.
func TestDesignDocOpTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "**Wire ops.**")
	if !found {
		t.Fatal("DESIGN.md has no **Wire ops.** paragraph")
	}
	section, _, _ = strings.Cut(section, "\n**") // up to the next bold paragraph
	docRows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if len(line) > 3 && line[0] == '|' && line[2] >= '0' && line[2] <= '9' {
			docRows[line] = true
		}
	}
	for _, op := range retiredOps {
		if opTable[op].name != "" {
			t.Errorf("retired op %d has a table row %q", op, opTable[op].name)
		}
	}
	codeRows := 0
	for op := 0; op < 256; op++ {
		sp := &opTable[op]
		if sp.name == "" {
			continue
		}
		codeRows++
		class := sp.class.String()
		if sp.control {
			class = "control"
		}
		var body, flags []string
		for _, fl := range flagNames {
			if sp.flags&fl.bit != 0 {
				flags = append(flags, fmt.Sprintf("`%s` = %d", fl.name, fl.bit))
			}
		}
		if unnamed := sp.flags &^ (flagTraced | flagLookup); unnamed != 0 {
			t.Errorf("op %d: flag bits %#x have no name in this test", op, unnamed)
		}
		if flags == nil {
			flags = []string{"none"}
		}
		if sp.has(flagTraced, flagTraced) {
			body = append(body, fmt.Sprintf("%d B trace context if `traced`", tracectx.Size))
		}
		if sp.has(flagLookup, flagLookup) {
			class += ", lookup if `lookup`"
		}
		badCount := "n/a"
		if sp.unit > 0 {
			body = append(body, fmt.Sprintf("%d B × count, count in [1, %d]", sp.unit, sp.max))
			badCount = "error, then drop the connection"
		}
		if body == nil {
			body = []string{"none"}
		}
		row := fmt.Sprintf("| %d | `%s` | %s | %s | %s | %s |", op, sp.name, class, strings.Join(body, " + "), badCount, strings.Join(flags, ", "))
		if !docRows[row] {
			t.Errorf("DESIGN.md is missing the op table row:\n%s", row)
		}
	}
	if len(docRows) != codeRows {
		t.Errorf("DESIGN.md lists %d wire ops, opTable has %d", len(docRows), codeRows)
	}
}
