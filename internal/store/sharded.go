package store

// Sharded fans one logical content-addressed store over N independent
// append-only shard logs (dir/lpod-00.log … dir/lpod-NN.log, hex-numbered)
// so concurrent submissions stop contending on a single file and a single
// fsync queue. Records are routed by window-hash prefix: the shard of a key
// is a hash of everything before the first '/', which is the 16-hex window
// hash for findings and pool vectors — so a window's finding and its
// counterexample vectors always share a shard, and per-shard append order
// is a durability order for that window. Rule keys (content-derived IDs)
// spread by the same function.
//
// Each shard is a full record log: its own file, index, committer,
// recovery and snapshot isolation. A logical operation touches exactly one
// shard (Put, Get, Has) or visits shards in shard order (Scan, Keys); Flush
// fans out to every shard in parallel.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Backend is the store surface the service layer runs against. *Sharded is
// the only implementation; the interface remains so a benchmark harness can
// wrap the store to time its calls.
type Backend interface {
	Put(kind Kind, key string, val []byte) (added bool, err error)
	Get(kind Kind, key string) ([]byte, bool)
	Has(kind Kind, key string) bool
	Len(kind Kind) int
	Keys(kind Kind) []string
	Scan(kind Kind, fn func(key string, val []byte) bool)
	Flush() error
	Compact(keep func(kind Kind, key string, val []byte) bool) (CompactStats, error)
	Stats() Stats
	Dir() string
	Close() error
}

var _ Backend = (*Sharded)(nil)

// Options configures Open. The zero value opens a directory's existing
// layout, or a fresh one-shard store.
type Options struct {
	// Shards is the shard count of a fresh store; 0 means 1. A directory
	// that already holds shard logs keeps its own count, whatever Shards
	// says — resharding in place would route keys away from their records.
	Shards int
	// Commit tunes every shard's group committer.
	Commit GroupCommitOptions
	// Wrap, when non-nil, is a write-layer shim: each shard log is accessed
	// through Wrap(file) instead of the raw *os.File. Chaos tests interpose
	// fault injection here; production callers leave it nil.
	Wrap func(File) File
}

// MaxShards bounds the shard count (the two-hex-digit file naming).
const MaxShards = 256

// shardName is the log file name of shard i.
func shardName(i int) string { return fmt.Sprintf("lpod-%02x.log", i) }

// shardCount counts the contiguous shard logs present in dir (0 when the
// directory holds no sharded store). A gap in the numbering is an error —
// it means someone deleted a shard file, which would silently lose records.
func shardCount(dir string) (int, error) {
	n := 0
	for i := 0; i < MaxShards; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardName(i))); err != nil {
			break
		}
		n++
	}
	// Anything matching the shard pattern beyond the contiguous prefix is a
	// hole in the numbering.
	matches, _ := filepath.Glob(filepath.Join(dir, "lpod-??.log"))
	if len(matches) != n {
		return 0, fmt.Errorf("store: %s holds %d shard logs but the contiguous prefix is %d (missing shard file?)", dir, len(matches), n)
	}
	return n, nil
}

// Sharded is an open store.
type Sharded struct {
	dir    string
	shards []*shard
}

// Open opens (or creates) the store in dir, creating the directory if
// missing, recovering every shard log from a torn tail, and starting each
// shard's group committer, which runs until Close. If dir holds a legacy
// single-log store (lpod.log), its records are migrated into the shards
// first (idempotent: a crash mid-migration re-runs it on the next open;
// the legacy log is renamed away only after every record is durable in
// its shard).
func Open(dir string, opts Options) (*Sharded, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	n := opts.Shards
	if existing, err := shardCount(dir); err != nil {
		return nil, err
	} else if existing > 0 {
		n = existing
	}
	if n <= 0 {
		n = 1
	}
	if n > MaxShards {
		return nil, fmt.Errorf("store: %d shards exceeds the maximum %d", n, MaxShards)
	}
	sh := &Sharded{dir: dir}
	for i := 0; i < n; i++ {
		s, err := openLog(dir, shardName(i), opts)
		if err != nil {
			sh.Close()
			return nil, err
		}
		sh.shards = append(sh.shards, s)
	}
	if err := sh.migrateLegacy(opts); err != nil {
		sh.Close()
		return nil, err
	}
	return sh, nil
}

// OpenSharded opens dir with a fresh store's shard count n. It is kept only
// because the perfbench harness calls it; new code calls Open.
func OpenSharded(dir string, n int) (*Sharded, error) {
	return Open(dir, Options{Shards: n})
}

// StartGroupCommit is a no-op: every shard's committer already runs from
// Open to Close, with the options given to Open. It is kept only because
// the perfbench harness calls it.
func (sh *Sharded) StartGroupCommit(GroupCommitOptions) {}

// migrateLegacy folds a pre-sharding lpod.log into the shards. Every record
// is re-Put (content-addressed dedup makes reruns free), flushed durable,
// and only then is the legacy log renamed to lpod.log.migrated — so a crash
// at any point leaves a state the next open completes from.
func (sh *Sharded) migrateLegacy(opts Options) error {
	legacy := filepath.Join(sh.dir, LogName)
	if _, err := os.Stat(legacy); err != nil {
		return nil
	}
	old, err := openLog(sh.dir, LogName, opts)
	if err != nil {
		return fmt.Errorf("store: migrating legacy log: %w", err)
	}
	for _, kind := range []Kind{KindFinding, KindRule, KindVector} {
		var ferr error
		old.Scan(kind, func(key string, val []byte) bool {
			_, ferr = sh.Put(kind, key, val)
			return ferr == nil
		})
		if ferr != nil {
			old.Close()
			return fmt.Errorf("store: migrating legacy log: %w", ferr)
		}
	}
	if err := sh.Flush(); err != nil {
		old.Close()
		return err
	}
	if err := old.Close(); err != nil {
		return err
	}
	return os.Rename(legacy, legacy+".migrated")
}

// shardFor routes a key: hash the window-hash prefix (everything before the
// first '/', i.e. the whole key for findings and rules, the window half for
// vector keys) so all records of one window land on one shard.
func (sh *Sharded) shardFor(key string) *shard {
	prefix := key
	if i := strings.IndexByte(key, '/'); i >= 0 {
		prefix = key[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(prefix))
	return sh.shards[int(h.Sum32())%len(sh.shards)]
}

// N reports the shard count.
func (sh *Sharded) N() int { return len(sh.shards) }

// ShardHas reports whether shard i holds (kind, key) — per-shard access
// for tests that pin routing.
func (sh *Sharded) ShardHas(i int, kind Kind, key string) bool {
	return sh.shards[i].Has(kind, key)
}

// Put routes the record to its key's shard.
func (sh *Sharded) Put(kind Kind, key string, val []byte) (bool, error) {
	return sh.shardFor(key).Put(kind, key, val)
}

// Get reads from the key's shard.
func (sh *Sharded) Get(kind Kind, key string) ([]byte, bool) {
	return sh.shardFor(key).Get(kind, key)
}

// Has reports whether the key's shard holds the record.
func (sh *Sharded) Has(kind Kind, key string) bool {
	return sh.shardFor(key).Has(kind, key)
}

// Len sums the kind's record count over all shards.
func (sh *Sharded) Len(kind Kind) int {
	n := 0
	for _, s := range sh.shards {
		n += s.Len(kind)
	}
	return n
}

// Keys returns the kind's keys across all shards in sorted order.
func (sh *Sharded) Keys(kind Kind) []string {
	var out []string
	for _, s := range sh.shards {
		out = append(out, s.Keys(kind)...)
	}
	sort.Strings(out)
	return out
}

// Scan visits every shard in shard order; within a shard, records appear in
// append order under that shard's snapshot isolation.
func (sh *Sharded) Scan(kind Kind, fn func(key string, val []byte) bool) {
	for _, s := range sh.shards {
		stop := false
		s.Scan(kind, func(key string, val []byte) bool {
			if !fn(key, val) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Flush is the logical durability barrier: it returns once every record Put
// before the call — on any shard — is durable. Shards flush in parallel, so
// the barrier costs one fsync latency, not N; the first failure is returned
// but every shard still gets its attempt. A one-shard store (the default
// layout) flushes on the caller's goroutine.
func (sh *Sharded) Flush() error {
	if len(sh.shards) == 1 {
		return sh.shards[0].Flush()
	}
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, s := range sh.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = s.Flush()
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact compacts every shard under the same keep policy (see
// shard.Compact) and aggregates the per-shard stats. Shards compact one at
// a time, so at most one shard is stop-the-world at any moment.
func (sh *Sharded) Compact(keep func(kind Kind, key string, val []byte) bool) (CompactStats, error) {
	var total CompactStats
	for _, s := range sh.shards {
		cs, err := s.Compact(keep)
		total.Kept += cs.Kept
		total.Dropped += cs.Dropped
		total.BytesBefore += cs.BytesBefore
		total.BytesAfter += cs.BytesAfter
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Stats aggregates every shard's counters.
func (sh *Sharded) Stats() Stats {
	var t Stats
	for _, s := range sh.shards {
		ss := s.Stats()
		t.Records += ss.Records
		t.Findings += ss.Findings
		t.Rules += ss.Rules
		t.Vectors += ss.Vectors
		t.Bytes += ss.Bytes
		t.PutNew += ss.PutNew
		t.PutDup += ss.PutDup
		t.GetHits += ss.GetHits
		t.GetMisses += ss.GetMisses
		t.Recovered += ss.Recovered
		t.Pending += ss.Pending
		t.CommitFails += ss.CommitFails
		t.Commits += ss.Commits
		t.Compactions += ss.Compactions
	}
	t.Shards = len(sh.shards)
	return t
}

// Dir returns the store's directory.
func (sh *Sharded) Dir() string { return sh.dir }

// Close stops every shard's committer after a final commit of whatever is
// pending and closes the shard logs, returning the first error.
func (sh *Sharded) Close() error {
	var first error
	for _, s := range sh.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
