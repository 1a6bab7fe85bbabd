package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dpm/internal/fsys"
)

// Backend is the byte-level file interface a store runs over. Names
// are flat segment file names relative to the backend's root; Append
// must create a missing file. Three implementations cover the store's
// lives: FsysBackend inside the simulated cluster (filters and
// daemons), DirBackend on the host file system (offline querying with
// dpquery), and MemBackend for tests and benchmarks. Create must
// replace a file whole — a reader or a restart sees the old state or
// the complete new file — and Read and Remove of a missing file must
// return an error that isNotExist recognizes.
type Backend interface {
	Create(name string, data []byte) error
	Append(name string, data []byte) error
	Read(name string) ([]byte, error)
	Remove(name string) error
	// List returns the sorted segment file names present.
	List() ([]string, error)
}

// isNotExist reports whether a backend error says the file is gone —
// in the host's, the simulated, or the in-memory file system.
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, fsys.ErrNotExist)
}

// FsysBackend stores segments under a directory prefix of a simulated
// machine's file system, owned by uid — the store-side analogue of the
// filter's /usr/tmp log file.
type FsysBackend struct {
	fs  *fsys.FS
	uid int
	dir string // e.g. /usr/tmp/f1.store
}

// NewFsysBackend returns a backend rooted at dir on fs, acting as uid.
func NewFsysBackend(fs *fsys.FS, uid int, dir string) *FsysBackend {
	return &FsysBackend{fs: fs, uid: uid, dir: strings.TrimSuffix(dir, "/")}
}

func (b *FsysBackend) path(name string) string { return b.dir + "/" + name }

// Create implements Backend.
func (b *FsysBackend) Create(name string, data []byte) error {
	return b.fs.Create(b.path(name), b.uid, fsys.PrivateMode, data)
}

// Append implements Backend.
func (b *FsysBackend) Append(name string, data []byte) error {
	return b.fs.Append(b.path(name), b.uid, data)
}

// Read implements Backend.
func (b *FsysBackend) Read(name string) ([]byte, error) {
	return b.fs.Read(b.path(name), b.uid)
}

// Remove implements Backend.
func (b *FsysBackend) Remove(name string) error {
	return b.fs.Remove(b.path(name), b.uid)
}

// List implements Backend.
func (b *FsysBackend) List() ([]string, error) {
	prefix := b.dir + "/"
	var names []string
	for _, p := range b.fs.List(prefix) {
		names = append(names, strings.TrimPrefix(p, prefix))
	}
	return names, nil // fs.List sorts
}

// DirBackend stores segments as files in a host directory — the form a
// store takes once it has been copied out of the simulation for
// offline analysis with dpquery.
type DirBackend struct {
	root string
}

// NewDirBackend returns a backend over the given host directory.
func NewDirBackend(root string) *DirBackend { return &DirBackend{root: root} }

func (b *DirBackend) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("store: bad segment name %q", name)
	}
	return filepath.Join(b.root, name), nil
}

// Create implements Backend.
func (b *DirBackend) Create(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return err
	}
	// Write beside the target and rename over it, so a crash never
	// leaves a torn merged segment next to the inputs it replaces.
	tmp := filepath.Join(b.root, "."+name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Append implements Backend.
func (b *DirBackend) Append(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Read implements Backend.
func (b *DirBackend) Read(name string) ([]byte, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Remove implements Backend.
func (b *DirBackend) Remove(name string) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// List implements Backend.
func (b *DirBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MemBackend is an in-memory backend for tests and benchmarks.
type MemBackend struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{files: make(map[string][]byte)} }

// Create implements Backend.
func (b *MemBackend) Create(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = append([]byte(nil), data...)
	return nil
}

// Append implements Backend.
func (b *MemBackend) Append(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = append(b.files[name], data...)
	return nil
}

// Read implements Backend.
func (b *MemBackend) Read(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("store: no segment %q: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("store: no segment %q: %w", name, fs.ErrNotExist)
	}
	delete(b.files, name)
	return nil
}

// List implements Backend.
func (b *MemBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.files))
	for n := range b.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
