package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU returns user+system CPU time consumed so far by pid.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: unparsable cpu fields for pid %d", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU returns user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		parts := strings.Fields(line[len(field)+1:])
		if len(parts) == 0 {
			break
		}
		return strconv.ParseInt(parts[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc: no %s in status of pid %d", field, pid)
}

// rssSampler tracks the peak resident set of a process over a window by
// sampling VmRSS. VmHWM would also count what came before the window: in
// process the three set-ups and the reference engine's runs, in the
// server a start-up transient (data generation, the bootstrap
// checkpoint) whose height depends on when the garbage collector
// happened to run. Set-up has its own metric; this one is memory under
// load.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // kB
}

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		if kb, err := procStatusKB(pid, "VmRSS"); err == nil && kb > s.peak {
			s.peak = kb
		}
	}
	sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// peakKB stops the sampler and returns the highest VmRSS it saw.
func (s *rssSampler) peakKB() int64 {
	close(s.stop)
	<-s.done
	return s.peak
}
