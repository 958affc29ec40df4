package hydra

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint format: a little-endian binary stream of named parameter
// tensors. HydraGNN training runs on shared machines are preemptible, so
// being able to save and resume replicas (which stay bit-identical across
// ranks under DDP) matters in practice.
const (
	checkpointMagic uint32 = 0x48594447 // "HYDG"
	ckptVersion            = 1
)

// Save writes the model's parameters to w.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ckptVersion)); err != nil {
		return err
	}
	params := m.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Value.Rows)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Value.Cols)); err != nil {
			return err
		}
		for _, v := range p.Value.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load restores the model's parameters from r. The checkpoint must have
// been written by a model with an identical architecture (same parameter
// names and shapes in the same order).
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("hydra: checkpoint: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("hydra: checkpoint: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != ckptVersion {
		return fmt.Errorf("hydra: checkpoint: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := m.Params()
	if int(count) != len(params) {
		return fmt.Errorf("hydra: checkpoint has %d parameters, model has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("hydra: checkpoint parameter %q, model expects %q", name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return fmt.Errorf("hydra: checkpoint %s is %dx%d, model expects %dx%d",
				p.Name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		for i := range p.Value.Data {
			var bits uint32
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return err
			}
			p.Value.Data[i] = math.Float32frombits(bits)
		}
	}
	return nil
}
