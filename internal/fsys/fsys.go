// Package fsys provides the per-machine simulated file system used by
// the monitor reproduction.
//
// The paper depends on files in several places: filter processes read
// their event-record descriptions and selection-rule templates from
// files and write their trace logs to files under /usr/tmp (section
// 3.4); executables must be present on the machine where a process is
// created, and 4.2BSD's lack of a remote file system forced the
// controller to copy them with rcp (section 3.5.3); standard input can
// be redirected from a file that is first copied to the target machine
// (section 3.5.2); and all file access is checked against the user's
// account privileges (section 3.5.5).
//
// FS models exactly that much of a file system: a flat path→file map
// with an owner uid, simple read/write permission bits, executable
// entries that name a registered program, and a Copy helper standing in
// for rcp.
package fsys

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors reported by file operations, mirroring the UNIX errno values
// the paper's system would have produced.
var (
	ErrNotExist = errors.New("fsys: file does not exist (ENOENT)")
	ErrExist    = errors.New("fsys: file exists (EEXIST)")
	ErrPerm     = errors.New("fsys: permission denied (EACCES)")
	ErrNotExec  = errors.New("fsys: not an executable (ENOEXEC)")
	ErrBadPath  = errors.New("fsys: bad path name")
)

// Superuser is the uid that bypasses permission checks, as in UNIX.
const Superuser = 0

// Mode holds the simplified permission bits of a file.
type Mode struct {
	OwnerRead  bool
	OwnerWrite bool
	WorldRead  bool
	WorldWrite bool
}

// DefaultMode is owner read/write, world read — the common case for
// program and data files in the paper's environment.
var DefaultMode = Mode{OwnerRead: true, OwnerWrite: true, WorldRead: true}

// PrivateMode is owner read/write only, used for trace logs.
var PrivateMode = Mode{OwnerRead: true, OwnerWrite: true}

// File is one entry in a machine's file system.
type File struct {
	Path string
	// Owner is the uid of the file's owner; permission checks compare
	// against it (section 3.5.5).
	Owner int
	Mode  Mode
	// Data holds the file contents for data files.
	Data []byte
	// Program, when non-empty, marks the file executable: it names a
	// program registered with the cluster's program registry. Copying
	// the file (rcp) carries the program name along, which is how an
	// executable becomes runnable on a remote machine.
	Program string
	// Ino is the file's incarnation number, unique within its FS:
	// Create (and Append to a missing path) assigns a fresh one, while
	// Append to an existing file keeps it. Bytes read from an
	// incarnation never change, so a reader that remembers (Ino,
	// offset) can fetch only what was appended since — and a replace
	// or remove-and-recreate, however long the new contents, shows up
	// as a different Ino.
	Ino uint64
}

// FS is the file system of one simulated machine. The zero value is
// not usable; call New.
type FS struct {
	mu      sync.Mutex
	files   map[string]*File
	lastIno uint64
}

// New returns an empty file system.
func New() *FS {
	return &FS{files: make(map[string]*File)}
}

func validPath(path string) error {
	if path == "" || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return nil
}

func (m Mode) readableBy(uid, owner int) bool {
	if uid == Superuser {
		return true
	}
	if uid == owner {
		return m.OwnerRead
	}
	return m.WorldRead
}

func (m Mode) writableBy(uid, owner int) bool {
	if uid == Superuser {
		return true
	}
	if uid == owner {
		return m.OwnerWrite
	}
	return m.WorldWrite
}

// Create creates or replaces a file owned by uid. Replacing an
// existing file requires write permission on it.
func (fs *FS) Create(path string, uid int, mode Mode, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[path]; ok && !old.Mode.writableBy(uid, old.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	fs.files[path] = &File{Path: path, Owner: uid, Mode: mode, Data: append([]byte(nil), data...), Ino: fs.nextIno()}
	return nil
}

// nextIno returns a fresh incarnation number. The caller holds fs.mu.
func (fs *FS) nextIno() uint64 {
	fs.lastIno++
	return fs.lastIno
}

// CreateExecutable creates an executable file bound to the named
// registered program.
func (fs *FS) CreateExecutable(path string, uid int, program string) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[path]; ok && !old.Mode.writableBy(uid, old.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	fs.files[path] = &File{Path: path, Owner: uid, Mode: DefaultMode, Program: program, Ino: fs.nextIno()}
	return nil
}

// Read returns a copy of the file's contents, checking read permission
// for uid.
func (fs *FS) Read(path string, uid int) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.Mode.readableBy(uid, f.Owner) {
		return nil, fmt.Errorf("%w: %s", ErrPerm, path)
	}
	return append([]byte(nil), f.Data...), nil
}

// ReadFrom returns a copy of at most max bytes of the file's contents
// starting at off, with the file's size and incarnation number, after
// checking read permission for uid. Only the returned range is copied,
// so reading the tail of a large file costs the tail. An offset outside
// the file reads from 0; a max <= 0 means no limit.
func (fs *FS) ReadFrom(path string, uid, off, max int) (data []byte, size int, ino uint64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.Mode.readableBy(uid, f.Owner) {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrPerm, path)
	}
	size = len(f.Data)
	if off < 0 || off > size {
		off = 0
	}
	end := size
	if max > 0 && max < end-off {
		end = off + max
	}
	return append([]byte(nil), f.Data[off:end]...), size, f.Ino, nil
}

// Append appends data to an existing file, checking write permission.
// If the file does not exist it is created owned by uid with
// PrivateMode, matching how filter log files appear under /usr/tmp.
func (fs *FS) Append(path string, uid int, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		fs.files[path] = &File{Path: path, Owner: uid, Mode: PrivateMode, Data: append([]byte(nil), data...), Ino: fs.nextIno()}
		return nil
	}
	if !f.Mode.writableBy(uid, f.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	f.Data = append(f.Data, data...)
	return nil
}

// Remove deletes a file, checking write permission.
func (fs *FS) Remove(path string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.Mode.writableBy(uid, f.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	delete(fs.files, path)
	return nil
}

// Exists reports whether a file is present, without permission checks
// (existence was visible to everyone in the paper's environment).
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Executable returns the registered program name bound to an
// executable file, checking read permission for uid.
func (fs *FS) Executable(path string, uid int) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.Mode.readableBy(uid, f.Owner) {
		return "", fmt.Errorf("%w: %s", ErrPerm, path)
	}
	if f.Program == "" {
		return "", fmt.Errorf("%w: %s", ErrNotExec, path)
	}
	return f.Program, nil
}

// Stat returns a copy of the file's metadata and contents.
func (fs *FS) Stat(path string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return File{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	cp := *f
	cp.Data = append([]byte(nil), f.Data...)
	return cp, nil
}

// List returns the sorted paths with the given prefix.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Copy copies a file between (possibly different) file systems — the
// stand-in for the rcp utility the controller used when an executable
// or input file was not present on the target machine (section 3.5.3).
// The caller must be able to read the source; the copy is owned by uid
// on the destination.
func Copy(src *FS, srcPath string, dst *FS, dstPath string, uid int) error {
	f, err := src.Stat(srcPath)
	if err != nil {
		return err
	}
	if !f.Mode.readableBy(uid, f.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, srcPath)
	}
	if f.Program != "" {
		return dst.CreateExecutable(dstPath, uid, f.Program)
	}
	return dst.Create(dstPath, uid, f.Mode, f.Data)
}
