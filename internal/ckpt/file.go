package ckpt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Checkpointer is the writing half of cca.Checkpointable, restated locally
// so this package stays dependency-free; any component implementing the
// port interface satisfies it structurally.
type Checkpointer interface {
	Checkpoint(w io.Writer) error
}

// Restorer is the reading half of cca.Checkpointable.
type Restorer interface {
	Restore(r io.Reader) error
}

// SaveTo checkpoints a component to path atomically: the stream is
// written to a temporary file in path's directory, synced, and renamed
// over path only after Checkpoint returns. A crash at any point leaves
// either the previous checkpoint or a stray ".ckpt-*" temp file — never a
// partial file under path.
func SaveTo(path string, c Checkpointer) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = c.Checkpoint(bw); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	return nil
}

// LoadInto restores a component from the checkpoint at path.
func LoadInto(path string, c Restorer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ckpt: load %s: %w", path, err)
	}
	defer f.Close()
	if err := c.Restore(bufio.NewReader(f)); err != nil {
		return fmt.Errorf("ckpt: load %s: %w", path, err)
	}
	return nil
}

// Marshal captures a component's checkpoint as bytes — the form the
// framework's Swap carries between components and orb's RestartPolicy
// replays over the wire.
func Marshal(c Checkpointer) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal restores a component from a Marshal'd checkpoint.
func Unmarshal(state []byte, c Restorer) error {
	return c.Restore(bytes.NewReader(state))
}
