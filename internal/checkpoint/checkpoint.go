// Package checkpoint saves and restores variable state — the
// checkpoint-restart capability the paper highlights for its CG solver
// ("our distributed CG solver with checkpoint-restart capability only
// consists of less than 300 lines of code"). A checkpoint records the graph
// structure identification, a step counter, and every variable's tensor.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"tfhpc/internal/tensor"
	"tfhpc/internal/vars"
	"tfhpc/internal/wire"
)

// ErrCorrupt marks integrity failures: truncated files, missing trailers,
// CRC mismatches. Every such error wraps it, so callers distinguish "this
// checkpoint is damaged — fall back to an older one or fail the restore"
// from transient I/O errors with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("checkpoint: corrupt")

// Trailer layout appended to every encoded checkpoint: CRC32-Castagnoli of
// the payload (4 bytes little-endian) followed by a magic tag. A crash
// mid-write leaves either no file (saves are temp+rename) or — if an
// external copy truncates — a payload whose trailer is missing or whose CRC
// disagrees; both fail loudly at Decode.
const trailerMagic = "TFCK"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is an in-memory snapshot.
type Checkpoint struct {
	// GraphID identifies the producing graph (e.g. a name + node count) so
	// restores onto mismatched programs fail loudly.
	GraphID string
	// Step is the application-defined resume point (e.g. CG iteration).
	Step int64
	// Vars maps variable names to their values.
	Vars map[string]*tensor.Tensor
}

// Capture snapshots a variable store.
func Capture(graphID string, step int64, store *vars.Store) *Checkpoint {
	return &Checkpoint{GraphID: graphID, Step: step, Vars: store.Snapshot()}
}

// Apply restores the snapshot into a store.
func (c *Checkpoint) Apply(store *vars.Store) error {
	return store.Restore(c.Vars)
}

// Encode serializes the checkpoint:
//
//	field 1: graph id (string)
//	field 2: step (varint)
//	field 3: repeated entry { 1: name, 2: tensor bytes }
//
// followed by the integrity trailer (payload CRC32C + magic).
func (c *Checkpoint) Encode() ([]byte, error) {
	e := wire.NewEncoder()
	e.String(1, c.GraphID)
	e.Uint(2, uint64(c.Step))
	// Deterministic order for reproducible files.
	names := make([]string, 0, len(c.Vars))
	for n := range c.Vars {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		buf, err := c.Vars[name].Encode(nil)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: variable %q: %w", name, err)
		}
		e.Message(3, func(ve *wire.Encoder) {
			ve.String(1, name)
			ve.BytesField(2, buf)
		})
	}
	payload := e.Bytes()
	out := make([]byte, len(payload), len(payload)+8)
	copy(out, payload)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, trailerMagic...), nil
}

// Decode verifies the integrity trailer and parses the payload. Trailer
// failures wrap ErrCorrupt.
func Decode(buf []byte) (*Checkpoint, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the trailer", ErrCorrupt, len(buf))
	}
	if string(buf[len(buf)-4:]) != trailerMagic {
		return nil, fmt.Errorf("%w: missing %q trailer (truncated or not a checkpoint)", ErrCorrupt, trailerMagic)
	}
	payload := buf[:len(buf)-8]
	want := binary.LittleEndian.Uint32(buf[len(buf)-8:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (file %08x, payload %08x)", ErrCorrupt, want, got)
	}
	buf = payload
	c := &Checkpoint{Vars: make(map[string]*tensor.Tensor)}
	d := wire.NewDecoder(buf)
	for {
		field, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch field {
		case 1:
			if c.GraphID, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 2:
			v, err := d.Uint()
			if err != nil {
				return nil, err
			}
			c.Step = int64(v)
		case 3:
			eb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			ed := wire.NewDecoder(eb)
			var name string
			var t *tensor.Tensor
			for {
				f, w, err := ed.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if name, err = ed.StringVal(); err != nil {
						return nil, err
					}
				case 2:
					tb, err := ed.Bytes()
					if err != nil {
						return nil, err
					}
					if t, err = tensor.DecodeAll(tb); err != nil {
						return nil, err
					}
				default:
					if err := ed.Skip(w); err != nil {
						return nil, err
					}
				}
			}
			if name == "" || t == nil {
				return nil, fmt.Errorf("checkpoint: malformed variable entry")
			}
			c.Vars[name] = t
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Save writes the checkpoint to path atomically: encode, write to a fresh
// temp file in the same directory, fsync, rename. A crash at any point
// leaves either the previous checkpoint or the new one — never a partial
// file under the final name.
func (c *Checkpoint) Save(path string) error {
	buf, err := c.Encode()
	if err != nil {
		return err
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(buf)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads a checkpoint from path.
func Load(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

// Restore loads path and applies it to the store after verifying GraphID.
func Restore(path, graphID string, store *vars.Store) (step int64, err error) {
	c, err := Load(path)
	if err != nil {
		return 0, err
	}
	if graphID != "" && c.GraphID != graphID {
		return 0, fmt.Errorf("checkpoint: graph mismatch: file has %q, want %q", c.GraphID, graphID)
	}
	if err := c.Apply(store); err != nil {
		return 0, err
	}
	return c.Step, nil
}
