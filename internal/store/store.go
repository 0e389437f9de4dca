// Package store is the persistent content-addressed store behind lpod,
// the discovery-as-a-service daemon: campaign state that used to die with
// each CLI run — findings, learned rulebook entries, pooled counterexample
// vectors — survives on disk so overlapping campaigns are incremental and
// a resubmitted window pays only for work nobody has done before.
//
// A store has one shape. Open returns a *Sharded: one logical record set
// fanned over N shard logs (dir/lpod-00.log …, one by default), each an
// append-only record log with its own in-memory index and its own group
// committer running from Open to Close. A log is an 8-byte magic header
// followed by length-prefixed, CRC-framed records. Every record is
// immutable and content-addressed — the key of a finding is the ir.Hash of
// its source window, the key of a rulebook entry is its content-derived
// rule ID, the key of a counterexample vector includes the hash of the
// vector itself — so a key is written at most once and its value never
// changes. That makes the concurrency story simple:
//
//   - Writes land in the in-memory index immediately (visible to readers)
//     and are framed to disk in one batch per commit, which fsyncs — so
//     durability is paid per batch, not per record. Flush is the only
//     durability barrier: it returns once every record Put before it is
//     durable, and concurrent Flushes share one commit (group commit). A
//     failed commit rolls the log back to its last durable length and
//     keeps the batch pending: the next commit retries everything, so a
//     transient write or fsync failure (disk full, injected fault)
//     degrades durability temporarily without losing an accepted record
//     or corrupting earlier ones.
//   - Readers are snapshot-isolated for free: a snapshot captures a shard's
//     current record count and observes exactly the records that existed
//     at capture time, concurrent appends notwithstanding.
//   - Crash recovery on Open scans each log and truncates a torn tail (a
//     partially written final record) back to the last intact record; an
//     interrupted batch loses at most its own unsynced records, never
//     earlier ones.
//   - Compaction (Compact) rewrites each log without the records a policy
//     drops (dead pool vectors, superseded rules), with a crash-safe tail
//     swap.
//
// doc.go, "Scaling the Store", covers group commit, sharding and
// compaction in depth.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the write seam of the record log: the slice of *os.File the store
// actually uses. Options.Wrap lets callers interpose a shim here — the
// fault-injection harness (internal/fault.File) wraps it to chaos-test
// partial appends, failed fsyncs and blocked truncates without touching a
// real disk's failure modes.
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// Kind partitions the key space: the same key string may exist once per kind.
type Kind uint8

// Record kinds.
const (
	// KindFinding holds one window's discovery outcome (a codec.go Finding),
	// keyed by the 16-hex ir.Hash of the source window.
	KindFinding Kind = 1
	// KindRule holds one learned rulebook entry (generalize.Entry JSON),
	// keyed by its content-derived rule ID.
	KindRule Kind = 2
	// KindVector holds one pooled counterexample vector (a codec.go PoolVec),
	// keyed by "<window-hash>/<vector-hash>".
	KindVector Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindFinding:
		return "finding"
	case KindRule:
		return "rule"
	case KindVector:
		return "vector"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// magic identifies (and versions) the log format; bump the trailing digit on
// breaking changes.
const magic = "LPODSTR1"

// LogName is the file name of a legacy single-log store, which Open
// migrates into the shard logs.
const LogName = "lpod.log"

// maxKeyLen and maxValLen bound a decoded record's claimed sizes so a
// corrupt length prefix cannot force a giant allocation during recovery.
const (
	maxKeyLen = 1 << 10
	maxValLen = 1 << 26
)

type record struct {
	kind Kind
	key  string
	val  []byte
}

// Stats is a snapshot of a store's counters. Its JSON tags are the store
// section of lpod's GET /v1/stats.
type Stats struct {
	Records   int   `json:"records"`         // records currently held (all kinds)
	Findings  int   `json:"findings"`        // records of KindFinding
	Rules     int   `json:"rules"`           // records of KindRule
	Vectors   int   `json:"vectors"`         // records of KindVector
	Bytes     int64 `json:"bytes"`           // log size in bytes (including header and any unsynced tail)
	PutNew    int64 `json:"put_new"`         // Put calls that appended a new record
	PutDup    int64 `json:"put_dup"`         // Put calls dropped as already-present (content-address hit)
	GetHits   int64 `json:"get_hits"`        // Get/Has calls that found their key
	GetMisses int64 `json:"get_misses"`      // Get/Has calls that did not
	Recovered int64 `json:"recovered_bytes"` // torn-tail bytes truncated by Open (0 after a clean shutdown)
	Pending   int   `json:"pending"`         // records accepted but not yet durable (retried by the next commit)
	// CommitFails counts failed commit batches (each rolled back and left
	// pending for retry). With Pending it is the store's
	// degraded-durability signal (see Degraded).
	CommitFails int64 `json:"commit_fails"`
	// Commits counts successful non-empty commit batches; Commits vs PutNew
	// is the group-commit amortization ratio (records per fsync).
	Commits int64 `json:"commits"`
	// Compactions counts completed Compact rewrites of the log.
	Compactions int64 `json:"compactions"`
	// Shards is how many shard logs back these stats.
	Shards int `json:"shards"`
}

// Degraded reports a commit backlog: a commit batch has failed and records
// are still pending, so recent Puts are servable but not yet durable.
// lpod's /v1/healthz and /v1/stats surface it.
func (s Stats) Degraded() bool { return s.CommitFails > 0 && s.Pending > 0 }

// shard is one open record log: the append-only file plus the in-memory
// hash index over it and its group committer. It is safe for concurrent
// use; the writer appends while any number of readers Get/Has/Scan, and
// snapshot gives a reader a stable point-in-time view.
type shard struct {
	// commitMu serializes the disk half of commit (and Compact). The record
	// write + fsync run with mu RELEASED, so readers and writers proceed
	// while a batch is being made durable — that is what lets concurrent
	// Puts pile into the next group-commit batch during the current fsync.
	commitMu sync.Mutex

	mu      sync.RWMutex
	dir     string
	name    string          // log file name inside dir (LogName, or lpod-NN.log for a shard)
	wrap    func(File) File // write-layer shim, retained for compaction rewrites
	f       File
	recs    []record
	idx     map[string]int // indexKey(kind,key) -> position in recs (first write wins)
	byK     [4]int         // record count per kind (index by Kind)
	size    int64          // bytes in the log, including accepted-but-not-durable records
	durable int64          // bytes known durable on disk (after the last successful commit)
	dirty   []int          // positions in recs accepted since the last successful commit
	gc      *committer     // group-commit worker, running from openLog to Close

	putNew      int64
	putDup      int64
	getHits     int64
	getMisses   int64
	recovered   int64
	commitFails int64
	commits     int64
	compactions int64
}

func indexKey(kind Kind, key string) string {
	return string([]byte{byte(kind), 0}) + key
}

// openLog opens (or creates) one record log in dir, recovering from a torn
// tail if the previous process crashed mid-append, and starts its group
// committer. The directory must exist.
func openLog(dir, name string, opts Options) (*shard, error) {
	// A leftover .compact temp file is an interrupted compaction that never
	// reached its rename: the original log is still authoritative, so the
	// temp is just deleted (Compact is atomic-or-nothing).
	os.Remove(filepath.Join(dir, name+compactSuffix))
	path := filepath.Join(dir, name)
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var f File = osf
	if opts.Wrap != nil {
		f = opts.Wrap(osf)
	}
	s := &shard{dir: dir, name: name, wrap: opts.Wrap, f: f, idx: make(map[string]int)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	s.gc = startCommitter(s, opts.Commit)
	return s, nil
}

// recover reads the log, builds the index, and truncates a torn tail. On an
// empty file it writes the header.
func (s *shard) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
		s.durable = s.size
		return nil
	}
	r := bufio.NewReader(io.NewSectionReader(s.f, 0, info.Size()))
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != magic {
		return fmt.Errorf("store: %s is not a lpod store log", filepath.Join(s.dir, s.name))
	}
	good := int64(len(magic))
	for {
		rec, n, err := readRecord(r)
		if err != nil {
			// A short, torn or CRC-corrupt tail is the signature of a crash
			// mid-append: keep the intact prefix and drop the rest.
			break
		}
		// Content-addressed: a duplicate key carries the same bytes, so the
		// first occurrence wins and later ones are skipped.
		if _, dup := s.idx[indexKey(rec.kind, rec.key)]; !dup {
			s.idx[indexKey(rec.kind, rec.key)] = len(s.recs)
			s.recs = append(s.recs, rec)
			s.count(rec.kind, 1)
		}
		good += int64(n)
	}
	if good < info.Size() {
		s.recovered = info.Size() - good
		if err := s.f.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = good
	s.durable = good
	return nil
}

func (s *shard) count(k Kind, d int) {
	if int(k) < len(s.byK) {
		s.byK[k] += d
	}
}

// Record framing: kind(1) keyLen(2 BE) valLen(4 BE) key val crc32(4 BE,
// IEEE, over everything before it). The CRC makes a torn tail detectable
// even when the lengths happen to be intact.
func appendRecord(buf []byte, rec record) []byte {
	start := len(buf)
	buf = append(buf, byte(rec.kind))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rec.key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.val)))
	buf = append(buf, rec.key...)
	buf = append(buf, rec.val...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, crc)
}

func readRecord(r *bufio.Reader) (record, int, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return record{}, 0, err
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	valLen := int(binary.BigEndian.Uint32(hdr[3:7]))
	if keyLen > maxKeyLen || valLen > maxValLen {
		return record{}, 0, fmt.Errorf("store: implausible record lengths")
	}
	body := make([]byte, keyLen+valLen+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return record{}, 0, err
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:keyLen+valLen])
	if crc != binary.BigEndian.Uint32(body[keyLen+valLen:]) {
		return record{}, 0, fmt.Errorf("store: record checksum mismatch")
	}
	rec := record{
		kind: Kind(hdr[0]),
		key:  string(body[:keyLen]),
		val:  body[keyLen : keyLen+valLen : keyLen+valLen],
	}
	return rec, 7 + len(body), nil
}

// Put accepts one record unless the (kind, key) pair is already present —
// the store is content-addressed, so a duplicate Put is a cache hit, not an
// update. The record is immediately visible to readers; Flush makes it
// durable. Put never touches the disk, so it cannot fail on I/O: an
// accepted record stays pending (and servable from memory) across any
// number of failed commits until one succeeds. added reports whether a new
// record was accepted.
func (s *shard) Put(kind Kind, key string, val []byte) (added bool, err error) {
	if len(key) > maxKeyLen {
		return false, fmt.Errorf("store: key too long (%d bytes)", len(key))
	}
	if len(val) > maxValLen {
		return false, fmt.Errorf("store: value too long (%d bytes)", len(val))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.idx[indexKey(kind, key)]; dup {
		s.putDup++
		return false, nil
	}
	rec := record{kind: kind, key: key, val: append([]byte(nil), val...)}
	s.idx[indexKey(kind, key)] = len(s.recs)
	s.dirty = append(s.dirty, len(s.recs))
	s.recs = append(s.recs, rec)
	s.count(kind, 1)
	s.size += frameLen(rec)
	s.putNew++
	return true, nil
}

// frameLen is the on-disk size of one record's frame (see appendRecord).
func frameLen(rec record) int64 {
	return int64(7 + len(rec.key) + len(rec.val) + 4)
}

// commit frames every pending record, appends the batch at the log's
// durable length, and fsyncs: everything Put before commit returns nil is
// durable. On failure the log is rolled back (best effort) to its last
// durable length and the whole batch stays pending — the next commit
// retries it from scratch, so callers may simply keep going in a degraded
// mode and commit again later. Committing with nothing pending is a cheap
// no-op. Only the committer, Close and a Flush racing Close call it;
// everyone else goes through Flush.
//
// commitMu keeps the durable offset and the log tail consistent across the
// disk I/O, which runs without the index lock: concurrent Puts (and Gets)
// proceed during the disk wait and land in the next batch — the natural
// batching group commit builds on.
func (s *shard) commit() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	s.mu.Lock()
	n := len(s.dirty)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	var buf []byte
	for _, i := range s.dirty[:n] {
		buf = appendRecord(buf, s.recs[i])
	}
	off := s.durable
	s.mu.Unlock()

	err := func() error {
		if _, err := s.f.Seek(off, io.SeekStart); err != nil {
			return err
		}
		if _, err := s.f.Write(buf); err != nil {
			return err
		}
		return s.f.Sync()
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Roll back any torn tail so the retry appends onto an intact
		// prefix. Best effort: if the truncate fails too (a crashed or
		// wedged disk), Open's torn-tail recovery handles the leftovers.
		s.f.Truncate(off)
		s.commitFails++
		return fmt.Errorf("store: commit: %w", err)
	}
	s.durable = off + int64(len(buf))
	s.commits++
	// Records Put during the fsync extended dirty past n; they stay pending
	// for the next batch.
	s.dirty = s.dirty[n:]
	return nil
}

// Get returns the value stored under (kind, key). The returned bytes are
// shared and must not be mutated.
func (s *shard) Get(kind Kind, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[indexKey(kind, key)]
	if !ok {
		s.getMisses++
		return nil, false
	}
	s.getHits++
	return s.recs[i].val, true
}

// Has reports whether (kind, key) is present, counting toward the hit/miss
// counters like Get.
func (s *shard) Has(kind Kind, key string) bool {
	_, ok := s.Get(kind, key)
	return ok
}

// Len reports how many records of the given kind the store holds.
func (s *shard) Len(kind Kind) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(kind) < len(s.byK) {
		return s.byK[kind]
	}
	return 0
}

// Keys returns the keys of the given kind in sorted order.
func (s *shard) Keys(kind Kind) []string {
	s.mu.RLock()
	var out []string
	for _, rec := range s.recs {
		if rec.kind == kind {
			out = append(out, rec.key)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Scan calls fn for every record of the given kind in append order,
// stopping early when fn returns false. The value bytes are shared and must
// not be mutated or retained past fn.
func (s *shard) Scan(kind Kind, fn func(key string, val []byte) bool) {
	s.snapshot().Scan(kind, fn)
}

// Stats returns a snapshot of the store's counters.
func (s *shard) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:     len(s.recs),
		Findings:    s.byK[KindFinding],
		Rules:       s.byK[KindRule],
		Vectors:     s.byK[KindVector],
		Bytes:       s.size,
		PutNew:      s.putNew,
		PutDup:      s.putDup,
		GetHits:     s.getHits,
		GetMisses:   s.getMisses,
		Recovered:   s.recovered,
		Pending:     len(s.dirty),
		CommitFails: s.commitFails,
		Commits:     s.commits,
		Compactions: s.compactions,
		Shards:      1,
	}
}

// Close stops the group committer (its final drain commits what is
// pending), makes one more commit attempt, and closes the log.
func (s *shard) Close() error {
	s.gc.shutdown()
	if err := s.commit(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// snapshot is a point-in-time view of a shard: it observes exactly the
// records present when it was captured, no matter how many appends land
// afterwards. Snapshots are cheap (two words) and need no release.
type snapshot struct {
	s *shard
	n int
}

// snapshot captures the current record count as an isolated read view.
func (s *shard) snapshot() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return snapshot{s: s, n: len(s.recs)}
}

// Len reports how many records (of all kinds) the snapshot observes.
func (v snapshot) Len() int { return v.n }

// Get returns the value stored under (kind, key) if the record existed at
// capture time. Reads through a snapshot do not move the store's hit/miss
// counters — those track the service's dedup traffic, not internal scans.
func (v snapshot) Get(kind Kind, key string) ([]byte, bool) {
	v.s.mu.RLock()
	defer v.s.mu.RUnlock()
	i, ok := v.s.idx[indexKey(kind, key)]
	if !ok || i >= v.n {
		return nil, false
	}
	return v.s.recs[i].val, true
}

// Has reports whether (kind, key) existed at capture time.
func (v snapshot) Has(kind Kind, key string) bool {
	_, ok := v.Get(kind, key)
	return ok
}

// Scan calls fn for every record of the given kind that existed at capture
// time, in append order, stopping early when fn returns false.
func (v snapshot) Scan(kind Kind, fn func(key string, val []byte) bool) {
	for i := 0; i < v.n; i++ {
		v.s.mu.RLock()
		if i >= len(v.s.recs) {
			// A Compact since capture shrank the log past this snapshot's
			// horizon; the remaining positions no longer exist.
			v.s.mu.RUnlock()
			return
		}
		rec := v.s.recs[i]
		v.s.mu.RUnlock()
		if rec.kind != kind {
			continue
		}
		if !fn(rec.key, rec.val) {
			return
		}
	}
}
