//go:build !unix

package main

import "wwb/internal/chrome"

// decodeDataFile loads a -data artifact, resolving delta chains, on
// platforms without mmap support.
func decodeDataFile(path string) (*chrome.Dataset, *chrome.SnapshotInfo, error) {
	return chrome.DecodeAnyPath(path)
}
