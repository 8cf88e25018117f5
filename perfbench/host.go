package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint records what a result was measured on, so numbers from
// different hosts or commits are never compared by accident.
func hostFingerprint() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"source":     sourceDigest(".."),
	}
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

// sourceDigest hashes the repository's Go sources and module files. A
// checkout without git metadata still gets a commit-like identity: two runs
// with equal digests measured the same code.
func sourceDigest(root string) string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		root = "." // started from the repository root
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the CPU time the process has used so far, every thread, user
// and system. The kernel charges a thread only for the time it ran, so on a
// shared host a busy neighbour stretches wall time but not this.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssReader reads the process's resident set size from /proc/self/statm,
// kept open so a sample costs one read.
type rssReader struct {
	f   *os.File
	buf [128]byte
}

func openRSS() *rssReader {
	f, _ := os.Open("/proc/self/statm")
	return &rssReader{f: f}
}

// mb returns the resident set in MB, 0 when it cannot be read.
func (r *rssReader) mb() float64 {
	if r.f == nil {
		return 0
	}
	n, _ := r.f.ReadAt(r.buf[:], 0)
	fields := strings.Fields(string(r.buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func (r *rssReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// rssPeak samples the resident set while a measured phase runs. It starts
// from a collected heap with freed pages returned to the system, so set-up
// garbage never counts, and each workload runs in its own process, so no
// other workload's memory does either.
type rssPeak struct {
	stop, done chan struct{}
	peak       float64
}

func startRSSPeak() *rssPeak {
	runtime.GC()
	debug.FreeOSMemory()
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	rss := openRSS()
	go func() {
		defer close(p.done)
		defer rss.close()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			p.peak = max(p.peak, rss.mb())
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops sampling and returns the peak in MB.
func (p *rssPeak) finish() float64 {
	close(p.stop)
	<-p.done
	return p.peak
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
