package main

import "syscall"

// childProcAttr makes the kernel kill a server subprocess when the
// benchmark itself dies without running its cleanup (SIGKILL, a driver
// timeout), so no run can leave a server behind.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
