package fsys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

const (
	alice = 101
	bob   = 102
)

func TestCreateAndRead(t *testing.T) {
	fs := New()
	if err := fs.Create("/a", alice, DefaultMode, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/a", alice)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("Read = %q, want hello", data)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Read("/missing", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestBadPath(t *testing.T) {
	fs := New()
	for _, p := range []string{"", "relative", "no/slash"} {
		if err := fs.Create(p, alice, DefaultMode, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestWorldReadable(t *testing.T) {
	fs := New()
	if err := fs.Create("/pub", alice, DefaultMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/pub", bob); err != nil {
		t.Fatalf("world-readable file not readable by other user: %v", err)
	}
}

func TestPrivateNotReadableByOthers(t *testing.T) {
	fs := New()
	if err := fs.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/priv", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestSuperuserBypassesPermissions(t *testing.T) {
	fs := New()
	if err := fs.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/priv", Superuser); err != nil {
		t.Fatalf("superuser read failed: %v", err)
	}
	if err := fs.Remove("/priv", Superuser); err != nil {
		t.Fatalf("superuser remove failed: %v", err)
	}
}

func TestOverwriteRequiresWritePermission(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", bob, DefaultMode, []byte("y")); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestAppendCreatesWithPrivateMode(t *testing.T) {
	fs := New()
	if err := fs.Append("/usr/tmp/log1", alice, []byte("rec1\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/usr/tmp/log1", alice, []byte("rec2\n")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/usr/tmp/log1", alice)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "rec1\nrec2\n" {
		t.Fatalf("log contents = %q", data)
	}
	if _, err := fs.Read("/usr/tmp/log1", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("trace log readable by other user: %v", err)
	}
}

func TestAppendDeniedWithoutWrite(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, PrivateMode, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", bob, []byte("x")); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestExecutable(t *testing.T) {
	fs := New()
	if err := fs.CreateExecutable("/bin/worker", alice, "worker-v1"); err != nil {
		t.Fatal(err)
	}
	prog, err := fs.Executable("/bin/worker", bob)
	if err != nil {
		t.Fatal(err)
	}
	if prog != "worker-v1" {
		t.Fatalf("Executable = %q, want worker-v1", prog)
	}
}

func TestExecutableOnDataFile(t *testing.T) {
	fs := New()
	if err := fs.Create("/data", alice, DefaultMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Executable("/data", alice); !errors.Is(err, ErrNotExec) {
		t.Fatalf("err = %v, want ErrNotExec", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, DefaultMode, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f", alice); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.Remove("/f", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestList(t *testing.T) {
	fs := New()
	for _, p := range []string{"/usr/tmp/b", "/usr/tmp/a", "/etc/x"} {
		if err := fs.Create(p, alice, DefaultMode, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/usr/tmp/")
	if len(got) != 2 || got[0] != "/usr/tmp/a" || got[1] != "/usr/tmp/b" {
		t.Fatalf("List = %v", got)
	}
}

func TestCopyDataFile(t *testing.T) {
	src, dst := New(), New()
	if err := src.Create("/f", alice, DefaultMode, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/f", dst, "/f", bob); err != nil {
		t.Fatal(err)
	}
	data, err := dst.Read("/f", bob)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("copied data = %q", data)
	}
}

func TestCopyExecutableCarriesProgram(t *testing.T) {
	// rcp of an executable must leave it runnable on the remote
	// machine (paper section 3.5.3).
	src, dst := New(), New()
	if err := src.CreateExecutable("/bin/p", alice, "prog"); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/bin/p", dst, "/bin/p", alice); err != nil {
		t.Fatal(err)
	}
	prog, err := dst.Executable("/bin/p", alice)
	if err != nil {
		t.Fatal(err)
	}
	if prog != "prog" {
		t.Fatalf("program = %q, want prog", prog)
	}
}

func TestCopyDeniedWithoutReadAccess(t *testing.T) {
	src, dst := New(), New()
	if err := src.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/priv", dst, "/priv", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestCopyMissingSource(t *testing.T) {
	src, dst := New(), New()
	if err := Copy(src, "/nope", dst, "/nope", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, DefaultMode, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.Read("/f", alice)
	data[0] = 'X'
	again, _ := fs.Read("/f", alice)
	if string(again) != "abc" {
		t.Fatal("Read exposed internal buffer")
	}
}

func TestCreateReadRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		fs := New()
		if err := fs.Create("/f", alice, DefaultMode, data); err != nil {
			return false
		}
		got, err := fs.Read("/f", alice)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendOrderPreserved(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := New()
		var want []byte
		for _, c := range chunks {
			if err := fs.Append("/log", alice, c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		if len(chunks) == 0 {
			return true
		}
		got, err := fs.Read("/log", alice)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ino returns the incarnation number of the file at path.
func ino(t *testing.T, fs *FS, path string) uint64 {
	t.Helper()
	f, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return f.Ino
}

func TestInoIncarnations(t *testing.T) {
	fs := New()
	if err := fs.Append("/log", alice, []byte("a")); err != nil {
		t.Fatal(err)
	}
	first := ino(t, fs, "/log")
	if first == 0 {
		t.Fatal("a new file has incarnation 0")
	}
	if err := fs.Append("/log", alice, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := ino(t, fs, "/log"); got != first {
		t.Fatalf("Append changed the incarnation: %d -> %d", first, got)
	}

	// A replace by Create, even with the same contents, is a new
	// incarnation.
	if err := fs.Create("/log", alice, PrivateMode, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	created := ino(t, fs, "/log")
	if created == first {
		t.Fatal("Create kept the incarnation")
	}

	// So is Remove followed by Append.
	if err := fs.Remove("/log", alice); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/log", alice, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if got := ino(t, fs, "/log"); got == created || got == first {
		t.Fatalf("Remove+Append reused incarnation %d", got)
	}

	// Incarnations are per file: another path gets its own.
	if err := fs.Create("/other", alice, DefaultMode, nil); err != nil {
		t.Fatal(err)
	}
	if ino(t, fs, "/other") == ino(t, fs, "/log") {
		t.Fatal("two files share an incarnation")
	}
}

func TestReadFrom(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, PrivateMode, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	want := ino(t, fs, "/f")
	cases := []struct {
		off, max int
		data     string
	}{
		{0, 0, "0123456789"},
		{4, 0, "456789"},
		{4, 3, "456"},
		{8, 5, "89"},
		{10, 0, ""},
		{0, 4, "0123"},
		// An offset outside the file reads from the top.
		{11, 0, "0123456789"},
		{-1, 0, "0123456789"},
		{99, 2, "01"},
	}
	for _, c := range cases {
		data, size, gotIno, err := fs.ReadFrom("/f", alice, c.off, c.max)
		if err != nil {
			t.Fatalf("ReadFrom(%d, %d): %v", c.off, c.max, err)
		}
		if string(data) != c.data || size != 10 || gotIno != want {
			t.Errorf("ReadFrom(%d, %d) = %q, %d, %d; want %q, 10, %d", c.off, c.max, data, size, gotIno, c.data, want)
		}
	}

	// The result is a copy: scribbling on it leaves the file alone.
	data, _, _, err := fs.ReadFrom("/f", alice, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if got, _ := fs.Read("/f", alice); string(got) != "0123456789" {
		t.Fatalf("ReadFrom result aliases the file: %q", got)
	}
}

func TestReadFromPermissions(t *testing.T) {
	fs := New()
	if err := fs.Create("/priv", alice, PrivateMode, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fs.ReadFrom("/priv", bob, 0, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("other user: err = %v, want ErrPerm", err)
	}
	if data, _, _, err := fs.ReadFrom("/priv", Superuser, 3, 0); err != nil || string(data) != "ret" {
		t.Fatalf("superuser: %q, %v", data, err)
	}
	if _, _, _, err := fs.ReadFrom("/missing", alice, 0, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}
}

// TestReadFromConcurrentAppend tails a file while another goroutine
// appends to it: every read must see a prefix-consistent view of the
// same incarnation. Run it under -race.
func TestReadFromConcurrentAppend(t *testing.T) {
	fs := New()
	if err := fs.Append("/log", alice, []byte("0")); err != nil {
		t.Fatal(err)
	}
	want := ino(t, fs, "/log")
	const appends = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= appends; i++ {
			if err := fs.Append("/log", alice, []byte{byte('0' + i%10)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got []byte
	for {
		finished := false
		select {
		case <-done:
			finished = true
		default:
		}
		data, size, gotIno, err := fs.ReadFrom("/log", alice, len(got), 7)
		if err != nil {
			t.Fatal(err)
		}
		if gotIno != want {
			t.Fatalf("incarnation changed under Append: %d -> %d", want, gotIno)
		}
		if len(got)+len(data) > size {
			t.Fatalf("read past the size: %d+%d > %d", len(got), len(data), size)
		}
		got = append(got, data...)
		if len(got) == appends+1 {
			break
		}
		if len(data) == 0 && finished {
			t.Fatalf("appender stopped at %d bytes", len(got))
		}
	}
	<-done
	for i, b := range got {
		if b != byte('0'+i%10) {
			t.Fatalf("byte %d = %q, want %q", i, b, '0'+i%10)
		}
	}
}
