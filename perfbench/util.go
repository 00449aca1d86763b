package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// sampler collects wall-clock samples of one measured operation.
type sampler []time.Duration

func (s *sampler) add(d time.Duration) { *s = append(*s, d) }

// median returns the median of xs, or 0 with none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or NaN when b is 0 so a degenerate base shows up as
// a failed metric rather than a silent zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// assignHash is an FNV-1a digest of an assignment vector, the identity
// recorded with every result so a "speed-only" change that alters the
// output is visible.
func assignHash(assign []int32) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, a := range assign {
		x := uint32(a)
		for i := 0; i < 4; i++ {
			h ^= uint64(x & 0xff)
			h *= prime
			x >>= 8
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sourceDigest hashes every Go source and module file under root, in
// lexical path order, so a result names the exact code it measured even
// where no version-control metadata is available. Build outputs are
// skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// splitmix64 is the splitmix64 finalizer; it derives the per-input
// seeds and the lookup ids from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed returns the seed for one named input of the run.
func subSeed(seed int64, salt uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(salt)) >> 1)
}
