//go:build !linux

package main

import "syscall"

// childProcAttr has no parent-death signal to offer off Linux; the
// signal handler and the deferred cleanup still stop the server.
func childProcAttr() *syscall.SysProcAttr { return nil }
