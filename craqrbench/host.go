package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// stealTicks reads the machine's stolen CPU time, in clock ticks summed
// over all CPUs: the time its virtual CPUs were ready to run but the
// hypervisor ran something else. It is the steal column of /proc/stat's
// "cpu" line.
func stealTicks() (int64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, errors.New("empty /proc/stat")
	}
	// cpu user nice system idle iowait irq softirq steal …
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	return strconv.ParseInt(fields[8], 10, 64)
}
