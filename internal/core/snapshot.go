package core

import (
	"fmt"
	"io"
	"sort"

	"aggcache/internal/cache"
)

// SaveCache writes the cache contents (chunk payloads, classes, benefits,
// recycled marks) to w in the cache package's snapshot-log format, so a
// middle tier can restart warm. Replacement state (clock weights, ring
// membership) is not preserved; reloaded chunks start fresh.
func (e *Engine) SaveCache(w io.Writer) error {
	if _, err := cache.WriteSnapshot(w, e.cache); err != nil {
		return fmt.Errorf("core: save cache: %w", err)
	}
	return nil
}

// LoadCache restores a snapshot written by SaveCache into the engine's
// cache, re-inserting every chunk through the normal admission path so the
// lookup strategy's counts and costs are maintained. Entries are admitted in
// descending benefit order: the most valuable chunks land in the hot tier
// first, and whatever overflows a smaller-than-at-save-time cache demotes or
// is denied in benefit order rather than file order. It returns the number
// of chunks admitted.
//
// A corrupt record (torn tail from a crash mid-write, flipped bit) stops the
// scan: the valid prefix is admitted and the cache.ErrSnapshot-wrapped error
// is returned alongside the count, so the caller can choose a partially warm
// cache over a cold one.
func (e *Engine) LoadCache(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("core: load cache: %w", err)
	}
	return e.loadSnapshot(data)
}

// LoadCacheFile is LoadCache over a snapshot file, memory-mapping it where
// the platform allows so a multi-gigabyte log is not double-buffered through
// the heap. A missing file is reported as os.ErrNotExist.
func (e *Engine) LoadCacheFile(path string) (int, error) {
	var entries []cache.SnapshotEntry
	var verr error
	err := cache.LoadSnapshotFile(path, func(se cache.SnapshotEntry) error {
		if verr = e.validateSnapshotEntry(se); verr != nil {
			return verr
		}
		entries = append(entries, se)
		return nil
	})
	if verr != nil {
		return 0, verr
	}
	n := e.admitSnapshotEntries(entries)
	if err != nil {
		return n, fmt.Errorf("core: load cache: %w", err)
	}
	return n, nil
}

// loadSnapshot parses and admits a whole in-memory snapshot log; see
// LoadCache for the partial-load contract.
func (e *Engine) loadSnapshot(data []byte) (int, error) {
	var entries []cache.SnapshotEntry
	var verr error
	err := cache.ReadSnapshot(data, func(se cache.SnapshotEntry) error {
		if verr = e.validateSnapshotEntry(se); verr != nil {
			return verr
		}
		entries = append(entries, se)
		return nil
	})
	if verr != nil {
		return 0, verr
	}
	n := e.admitSnapshotEntries(entries)
	if err != nil {
		return n, fmt.Errorf("core: load cache: %w", err)
	}
	return n, nil
}

// validateSnapshotEntry rejects records that do not fit this engine's grid —
// a snapshot from a different schema or scale, or one whose cell keys
// overrun their chunk, must not be admitted.
func (e *Engine) validateSnapshotEntry(se cache.SnapshotEntry) error {
	if se.Data == nil {
		return fmt.Errorf("core: snapshot entry %v has no payload", se.Key)
	}
	if err := e.grid.CheckChunk(se.Key.GB, se.Key.Num, se.Data); err != nil {
		return fmt.Errorf("core: snapshot entry %v: %w", se.Key, err)
	}
	return nil
}

// admitSnapshotEntries reinserts entries in descending benefit order and
// returns how many the store admitted.
func (e *Engine) admitSnapshotEntries(entries []cache.SnapshotEntry) int {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Benefit > entries[j].Benefit })
	admitted := 0
	for _, se := range entries {
		var opt cache.InsertOption
		switch {
		case se.Recycled:
			opt = cache.AsRecycled(se.Benefit)
		case se.Class == cache.ClassComputed:
			opt = cache.AsComputed(se.Benefit)
		default:
			opt = cache.AsBackend(se.Benefit)
		}
		if e.cache.Insert(se.Key, se.Data, opt) {
			admitted++
		}
	}
	return admitted
}

// SaveCacheFile writes a snapshot of the cache to path atomically (temp file
// + rename), returning the number of records written. A crash mid-save
// leaves any previous snapshot at path intact.
func (e *Engine) SaveCacheFile(path string) (int, error) {
	n, err := cache.SaveSnapshotFile(path, e.cache)
	if err != nil {
		return n, fmt.Errorf("core: save cache: %w", err)
	}
	return n, nil
}
