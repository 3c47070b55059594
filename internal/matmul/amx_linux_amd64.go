package matmul

import "syscall"

// requestAMX asks Linux for the AMX tile data state, which a process must
// request before its first tile instruction (arch_prctl ARCH_REQ_XCOMP_PERM
// for XFEATURE_XTILEDATA); without it the instruction faults. The grant is
// per process, so one call at init covers every thread.
func requestAMX() bool {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0)
	return errno == 0
}
