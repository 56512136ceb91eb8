//go:build linux

package parser

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// Parse refuses a source whose offsets a 32-bit position cannot hold.
// The test allocates no 2 GiB: its source is maxSource+1 bytes of
// address space mapped with no access, so Parse must refuse it on its
// length alone; reading any byte of it would fault.
func TestParseRefusesHugeSource(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("no string on this platform is longer than maxSource")
	}
	mem, err := syscall.Mmap(-1, 0, int(uint(maxSource)+1), syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("reserving the address space: %v", err)
	}
	defer syscall.Munmap(mem)
	f, err := Parse("huge.nmsl", unsafe.String(&mem[0], len(mem)))
	list, ok := err.(ErrorList)
	if !ok || len(list) != 1 {
		t.Fatalf("err = %v, want one error", err)
	}
	const want = "huge.nmsl: source of 2147483648 bytes is longer than the 2147483647 a position can address"
	if list[0].Msg != want {
		t.Errorf("error %q, want %q", list[0].Msg, want)
	}
	if f == nil || len(f.Decls) != 0 {
		t.Errorf("file %v, want an empty one", f)
	}
}
