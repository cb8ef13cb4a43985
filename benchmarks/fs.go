package main

import (
	"os"
	"sync"
	"time"

	"oblivjoin/internal/fault"
)

// countingFS is the filesystem seam (service.Config.FS) the durable
// workload runs on: it passes every call to the real OS, counts write
// calls, bytes written and fsyncs, times them, and remembers how much
// of each file has been fsynced, so a crash copy can drop the rest.
type countingFS struct {
	mu      sync.Mutex
	writes  int64
	bytes   int64
	syncs   int64
	busy    time.Duration // time inside Write, WriteAt and Sync
	size    map[string]int64
	flushed map[string]int64
}

func newCountingFS() *countingFS {
	return &countingFS{size: map[string]int64{}, flushed: map[string]int64{}}
}

// fsCounts is a snapshot of the counters.
type fsCounts struct {
	writes, bytes, syncs int64
	busy                 time.Duration
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{c.writes, c.bytes, c.syncs, c.busy}
}

// synced reports how many leading bytes of path are known fsynced;
// tracked is false for files never written through the seam.
func (c *countingFS) synced(path string) (n int64, tracked bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, tracked = c.flushed[path]
	return n, tracked
}

func (c *countingFS) track(f fault.File, name string, flag int) fault.File {
	c.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		c.size[name], c.flushed[name] = 0, 0
	} else if _, ok := c.size[name]; !ok {
		if st, err := os.Stat(name); err == nil {
			c.size[name], c.flushed[name] = st.Size(), st.Size()
		}
	}
	c.mu.Unlock()
	return &countingFile{File: f, fs: c, name: name}
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fault.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return c.track(f, name, flag), nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	f, err := fault.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return c.track(f, f.Name(), os.O_CREATE|os.O_TRUNC), nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) { return fault.OS.ReadFile(name) }

func (c *countingFS) Rename(oldpath, newpath string) error {
	if err := fault.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if n, ok := c.size[oldpath]; ok {
		c.size[newpath], c.flushed[newpath] = n, c.flushed[oldpath]
		delete(c.size, oldpath)
		delete(c.flushed, oldpath)
	}
	c.mu.Unlock()
	return nil
}

func (c *countingFS) Remove(name string) error {
	c.mu.Lock()
	delete(c.size, name)
	delete(c.flushed, name)
	c.mu.Unlock()
	return fault.OS.Remove(name)
}

func (c *countingFS) Truncate(name string, size int64) error {
	if err := fault.OS.Truncate(name, size); err != nil {
		return err
	}
	c.mu.Lock()
	c.size[name] = size
	c.flushed[name] = min(c.flushed[name], size)
	c.mu.Unlock()
	return nil
}

type countingFile struct {
	fault.File
	fs   *countingFS
	name string
}

func (f *countingFile) wrote(n int, end int64, d time.Duration) {
	c := f.fs
	c.mu.Lock()
	c.writes++
	c.bytes += int64(n)
	c.busy += d
	if end < 0 {
		c.size[f.name] += int64(n)
	} else {
		c.size[f.name] = max(c.size[f.name], end)
	}
	c.mu.Unlock()
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.wrote(n, -1, time.Since(t0))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wrote(n, off+int64(n), time.Since(t0))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	c := f.fs
	c.mu.Lock()
	c.syncs++
	c.busy += d
	if err == nil {
		c.flushed[f.name] = c.size[f.name]
	}
	c.mu.Unlock()
	return err
}
