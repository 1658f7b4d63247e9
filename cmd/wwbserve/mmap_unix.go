//go:build unix

package main

import (
	"os"
	"syscall"

	"wwb/internal/chrome"
)

// decodeDataFile loads a -data artifact. Regular files are mmapped and
// decoded zero-copy — the dataset copies everything it keeps, so the
// mapping is released before returning. Anything not mappable, and a
// .wwbd delta (its base resolves relative to the file's directory),
// goes through the path-aware loader instead.
func decodeDataFile(path string) (*chrome.Dataset, *chrome.SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() || st.Size() <= 0 || int64(int(st.Size())) != st.Size() {
		return chrome.DecodeAnyPath(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return chrome.DecodeAnyPath(path)
	}
	defer syscall.Munmap(data)
	if chrome.IsDeltaSnapshot(data) {
		return chrome.DecodeAnyPath(path)
	}
	return chrome.DecodeSnapshotBytes(data)
}
