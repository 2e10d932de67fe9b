package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPUSeconds returns a process's user+sys CPU time from
// /proc/<pid>/stat, summed over all its threads.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is parenthesised and
// may hold spaces or parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ")" come field 3 (state) onwards; utime is field 14.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// parseVmHWM extracts VmHWM from a /proc/<pid>/status document, in MiB.
func parseVmHWM(b []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}
