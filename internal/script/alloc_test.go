package script

import "testing"

// TestNewInterpAllocs pins stamping the builtins: the interpreter and
// its global scope, with no per-builtin copies (measured at 3).
func TestNewInterpAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins need a quiet heap")
	}
	NewInterp() // build the shared builtins snapshot once
	if got := testing.AllocsPerRun(200, func() { NewInterp() }); got > 8 {
		t.Errorf("NewInterp: %.1f allocs/op, want <= 8", got)
	}
}
