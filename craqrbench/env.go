package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// collectEnv records the facts a result depends on: the source tree, CPU,
// nproc, GOMAXPROCS on both sides, the Go version and the filesystem of
// the run's directory, which holds the durable replay's data dir.
func collectEnv(runDir string, craqrdProcs int) map[string]string {
	return map[string]string{
		"commit":            treeDigest("."),
		"cpu":               cpuModel(),
		"nproc":             strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs_bench":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"gomaxprocs_craqrd": strconv.Itoa(craqrdProcs),
		"go":                runtime.Version(),
		"data_dir_fs":       fsType(runDir),
	}
}

// treeDigest identifies the source under test. The benchmark runs from
// checkouts that are not git repositories, so the "commit" is the SHA-256
// of every Go source and module file's path and content, in walk order.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
