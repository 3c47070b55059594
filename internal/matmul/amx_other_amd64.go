//go:build !linux

package matmul

// requestAMX reports no AMX permission: only Linux is asked for the tile
// data state, so the amx int8 kernels run on Linux alone.
func requestAMX() bool { return false }
