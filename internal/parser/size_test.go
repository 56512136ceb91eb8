package parser

import (
	"testing"
	"unsafe"

	"nmsl/internal/token"
)

// The parse tree is mostly items, and every item, clause, declaration
// and diagnostic carries a position: a compiled 10,000-domain
// specification keeps the tree live, so these sizes are its heap.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(Item{}); got > 64 {
		t.Errorf("Item is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof(token.Pos{}); got != 12 {
		t.Errorf("token.Pos is %d bytes, want 12", got)
	}
}
