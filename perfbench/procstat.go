package main

// procstat.go reads processes' resource use from outside: CPU time and
// peak resident set from /proc, the driver's own CPU from getrusage, and
// the filesystem a directory lives on.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every mainstream Linux architecture).
const clockTicks = 100

// procCPU returns a process's user plus system CPU time, all threads.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// After the name: state is field 3, utime 14 and stime 15 (1-based).
	if len(fields) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procPeakRSS returns a process's peak resident set size in bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostSteal returns the machine-wide CPU time the hypervisor has stolen,
// from /proc/stat.
func hostSteal() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("parse /proc/stat")
	}
	steal, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/stat steal: %w", err)
	}
	return time.Duration(steal) * time.Second / clockTicks, nil
}

// selfCPU returns the calling process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
