package store

// Compaction: rewrite a record log without the records a policy drops
// (dead or evicted pool vectors, superseded rules), reclaiming disk without
// tombstones. The swap is atomic-or-nothing: the kept records are framed
// into <log>.compact, fsynced, and renamed over the log; a crash at any
// point before the rename leaves the original log authoritative (openLog
// deletes a leftover temp), and a crash after it finds a complete,
// self-consistent log. Records accepted but not yet durable ride along —
// they are written into the compacted log, so compaction doubles as a
// commit for the pending batch.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compactSuffix names the temp file of an in-progress compaction.
const compactSuffix = ".compact"

// CompactStats reports what one Compact rewrite did.
type CompactStats struct {
	Kept        int   // records carried into the new log
	Dropped     int   // records the keep policy discarded
	BytesBefore int64 // log size before the rewrite
	BytesAfter  int64 // log size after
}

// Compact rewrites the log keeping only records for which keep returns true
// (nil keeps everything — still useful: it folds the pending batch in and
// drops bytes shadowed by duplicate frames). The shard is stop-the-world
// for the duration: Puts, Gets and commits block until the swap completes.
// On error the original log and in-memory state are untouched.
//
// Compaction renumbers record positions, so a snapshot captured before
// Compact loses its point-in-time guarantee: it degrades to reading the
// compacted state (dropped records vanish from it; Scan stops at the new
// length). Callers holding snapshots across an admin-triggered compaction
// observe the compacted log, never garbage.
func (s *shard) Compact(keep func(kind Kind, key string, val []byte) bool) (CompactStats, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	var st CompactStats
	st.BytesBefore = s.size

	kept := make([]record, 0, len(s.recs))
	buf := []byte(magic)
	for _, rec := range s.recs {
		if keep != nil && !keep(rec.kind, rec.key, rec.val) {
			st.Dropped++
			continue
		}
		kept = append(kept, rec)
		buf = appendRecord(buf, rec)
	}
	st.Kept = len(kept)
	st.BytesAfter = int64(len(buf))

	path := filepath.Join(s.dir, s.name)
	tmpPath := path + compactSuffix
	if err := s.writeCompactTemp(tmpPath, buf); err != nil {
		os.Remove(tmpPath)
		return st, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return st, fmt.Errorf("store: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return st, fmt.Errorf("store: compact: %w", err)
	}

	// The rename replaced the path; the old descriptor still points at the
	// old inode, so swap in a descriptor for the new log before dropping it.
	osf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return st, fmt.Errorf("store: compact: reopening log: %w", err)
	}
	var nf File = osf
	if s.wrap != nil {
		nf = s.wrap(osf)
	}
	if _, err := nf.Seek(int64(len(buf)), io.SeekStart); err != nil {
		nf.Close()
		return st, fmt.Errorf("store: compact: %w", err)
	}
	s.f.Close()
	s.f = nf

	s.recs = kept
	s.idx = make(map[string]int, len(kept))
	s.byK = [4]int{}
	for i, rec := range kept {
		s.idx[indexKey(rec.kind, rec.key)] = i
		s.count(rec.kind, 1)
	}
	s.size = int64(len(buf))
	s.durable = s.size
	s.dirty = nil
	s.compactions++
	return st, nil
}

// writeCompactTemp writes and fsyncs the full compacted log image. The temp
// write goes through the store's write-layer shim too, so chaos tests can
// fail a compaction mid-write — which must leave the original log intact.
func (s *shard) writeCompactTemp(tmpPath string, buf []byte) error {
	osf, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var f File = osf
	if s.wrap != nil {
		f = s.wrap(osf)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
