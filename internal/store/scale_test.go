package store

// Tests for the ingest-scaling layers: group commit (coalesced fsyncs with
// per-waiter notification), sharded stores (routing, migration, aggregate
// stats), and compaction (crash-safe tail swap, pending-batch fold-in).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
)

// TestGroupCommitCoalesces drives many concurrent writers through Flush and
// checks that (a) every record is durable when its Flush returns and (b) the
// committer actually amortized: far fewer fsync batches than records.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%02d%04d", w, i)
				if _, err := s.Put(KindFinding, key, []byte(key)); err != nil {
					errs[w] = err
					return
				}
				if err := s.Flush(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.PutNew != writers*perWriter {
		t.Fatalf("PutNew = %d, want %d", st.PutNew, writers*perWriter)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d after all Flushes returned", st.Pending)
	}
	// 8 concurrent writers × 50 barriers each must share fsyncs; anything
	// close to one commit per record means coalescing never happened.
	if st.Commits >= st.PutNew {
		t.Fatalf("no amortization: %d commits for %d records", st.Commits, st.PutNew)
	}
	t.Logf("amortization: %d records / %d commits = %.1f per fsync",
		st.PutNew, st.Commits, float64(st.PutNew)/float64(st.Commits))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if n := s2.Len(KindFinding); n != writers*perWriter {
		t.Fatalf("reopen holds %d findings, want %d", n, writers*perWriter)
	}
}

// TestGroupCommitFailureNotifiesWaiter pins the degraded path under group
// commit: a Flush whose batch fails to fsync returns the error, the record
// stays pending and servable, and a later Flush drains it.
func TestGroupCommitFailureNotifiesWaiter(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(7, fault.Plan{
		fault.SiteStoreSync: {ErrorRate: 1, Budget: 1},
	})
	inj.Disable() // spend no budget on the header sync in recover()
	s, err := Open(dir, faultOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindFinding, "aaaa", []byte("finding-a")); err != nil {
		t.Fatal(err)
	}
	inj.Enable()

	if err := s.Flush(); err == nil {
		t.Fatal("Flush reported durable despite injected fsync failure")
	}
	st := s.Stats()
	if st.CommitFails != 1 || st.Pending != 1 {
		t.Fatalf("after failed flush: CommitFails=%d Pending=%d", st.CommitFails, st.Pending)
	}
	if v, ok := s.Get(KindFinding, "aaaa"); !ok || !bytes.Equal(v, []byte("finding-a")) {
		t.Fatalf("accepted record lost after failed flush: %q %v", v, ok)
	}

	// Budget exhausted: the next barrier succeeds.
	if err := s.Flush(); err != nil {
		t.Fatalf("retry flush failed: %v", err)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d after successful flush", st.Pending)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitStop pins shutdown: Close stops the committer after a
// final drain that commits what is pending without any Flush, a Flush after
// Close with nothing pending returns at once instead of hanging on the dead
// committer, and a second Close neither hangs nor panics.
func TestGroupCommitStop(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Put(KindFinding, "aaaa", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("Close left %d records pending", st.Pending)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Close() // the log is already closed; only the absence of a hang matters

	s2 := openT(t, dir)
	defer s2.Close()
	if v, ok := s2.Get(KindFinding, "aaaa"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("final drain lost the pending record: %q %v", v, ok)
	}
	if s2.Stats().Recovered != 0 {
		t.Fatalf("clean Close left torn bytes: %+v", s2.Stats())
	}
}

// TestFlushRacingClose pins the shutdown race: Flushes issued concurrently
// with Close all return — durable, or with the closed log's error — and
// none hangs on the stopped committer or panics (run it under -race).
func TestFlushRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := Open(t.TempDir(), Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					s.Put(KindFinding, fmt.Sprintf("%02d%02d%04d", round, w, i), []byte("v"))
					s.Flush()
				}
			}(w)
		}
		s.Close()
		wg.Wait()
	}
}

// TestShardedRouting pins the shard layout: records land on the shard of
// their window-hash prefix (a window's finding and vectors colocate), stats
// aggregate, Keys sort globally, and a reopen recovers every shard.
func TestShardedRouting(t *testing.T) {
	dir := t.TempDir()
	sh, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sh.N() != 4 {
		t.Fatalf("N = %d, want 4", sh.N())
	}
	windows := []string{"0a1b", "ffee", "1234", "dead", "beef", "c0de"}
	for _, w := range windows {
		if added, err := sh.Put(KindFinding, w, []byte("f-"+w)); err != nil || !added {
			t.Fatalf("put %s: added=%v err=%v", w, added, err)
		}
		sh.Put(KindVector, w+"/11", []byte("v1"))
		sh.Put(KindVector, w+"/22", []byte("v2"))
	}
	// Colocating: a window's finding and its vectors share a shard.
	for _, w := range windows {
		fs := sh.shardFor(w)
		if sh.shardFor(w+"/11") != fs || sh.shardFor(w+"/22") != fs {
			t.Fatalf("window %s vectors routed off its finding's shard", w)
		}
		if !fs.Has(KindFinding, w) {
			t.Fatalf("finding %s not on its routed shard", w)
		}
	}
	// Shard files exist and at least two shards got traffic (six windows
	// over four shards collide into one shard only with probability ~4^-5).
	used := 0
	for i := 0; i < sh.N(); i++ {
		if _, err := os.Stat(filepath.Join(dir, shardName(i))); err != nil {
			t.Fatalf("missing shard log %d: %v", i, err)
		}
		if sh.shards[i].Len(KindFinding) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("all findings on %d shard(s); routing is not spreading", used)
	}
	if n := sh.Len(KindFinding); n != len(windows) {
		t.Fatalf("Len = %d, want %d", n, len(windows))
	}
	keys := sh.Keys(KindFinding)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
	st := sh.Stats()
	if st.Shards != 4 || st.Findings != len(windows) || st.Vectors != 2*len(windows) {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero Options keep the directory's layout rather than see an empty
	// one-shard store.
	sh1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sh1.N() != 4 || sh1.Len(KindFinding) != len(windows) {
		t.Fatalf("default open of a 4-shard dir: N = %d, %d findings", sh1.N(), sh1.Len(KindFinding))
	}
	if err := sh1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen recovers all shards; a different n loses to the on-disk count.
	sh2, err := Open(dir, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if sh2.N() != 4 {
		t.Fatalf("reopen resharded: N = %d, want 4", sh2.N())
	}
	for _, w := range windows {
		if v, ok := sh2.Get(KindFinding, w); !ok || !bytes.Equal(v, []byte("f-"+w)) {
			t.Fatalf("reopen lost %s: %q %v", w, v, ok)
		}
	}
}

// TestShardedMigratesLegacyLog pins the upgrade path: Open on a
// pre-sharding store folds lpod.log into the shards (four requested, or the
// default one), renames it away, and a second open is a no-op.
func TestShardedMigratesLegacyLog(t *testing.T) {
	for _, shards := range []int{4, 0} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testMigratesLegacyLog(t, shards)
		})
	}
}

func testMigratesLegacyLog(t *testing.T, shards int) {
	dir := t.TempDir()
	s, err := openLog(dir, LogName, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("%04x", i*257)
		s.Put(KindFinding, key, []byte("legacy-"+key))
		s.Put(KindVector, key+"/aa", []byte("vec"))
	}
	s.Put(KindRule, "rule-1", []byte("rule-body"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sh, err := Open(dir, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if want := max(shards, 1); sh.N() != want {
		t.Fatalf("migrated into %d shards, want %d", sh.N(), want)
	}
	if n := sh.Len(KindFinding); n != 20 {
		t.Fatalf("migrated %d findings, want 20", n)
	}
	if _, ok := sh.Get(KindRule, "rule-1"); !ok {
		t.Fatal("rule lost in migration")
	}
	if sh.Stats().Pending != 0 {
		t.Fatal("migration left records pending")
	}
	if _, err := os.Stat(filepath.Join(dir, LogName)); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, LogName+".migrated")); err != nil {
		t.Fatalf("migrated legacy log not retained: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	sh2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if n := sh2.Len(KindFinding); n != 20 {
		t.Fatalf("post-migration reopen holds %d findings, want 20", n)
	}
}

// TestShardedMissingShardFile pins the hole check: deleting a middle shard
// log must fail the open loudly instead of silently dropping its records.
func TestShardedMissingShardFile(t *testing.T) {
	dir := t.TempDir()
	sh, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if err := os.Remove(filepath.Join(dir, shardName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 4}); err == nil {
		t.Fatal("Open accepted a directory with a missing shard log")
	}
}

// TestCompact pins the rewrite: dropped records vanish (from memory, disk,
// and a reopen), kept records survive byte-identical, the pending batch is
// folded in durable, and the log shrinks.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("%04x", i)
		s.Put(KindFinding, key, []byte("keep-"+key))
		s.Put(KindVector, key+"/aa", bytes.Repeat([]byte("x"), 128))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// One record accepted but not yet durable: compaction must carry it.
	s.Put(KindFinding, "ffff", []byte("pending"))

	before := s.Stats()
	cs, err := s.Compact(func(kind Kind, key string, val []byte) bool {
		return kind != KindVector
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 11 || cs.Dropped != 10 {
		t.Fatalf("compact stats = %+v", cs)
	}
	if cs.BytesAfter >= cs.BytesBefore {
		t.Fatalf("log did not shrink: %+v", cs)
	}
	st := s.Stats()
	if st.Vectors != 0 || st.Findings != 11 || st.Pending != 0 || st.Compactions != 1 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	if st.Bytes >= before.Bytes {
		t.Fatalf("Bytes %d did not shrink from %d", st.Bytes, before.Bytes)
	}
	if v, ok := s.Get(KindFinding, "ffff"); !ok || !bytes.Equal(v, []byte("pending")) {
		t.Fatal("pending record lost by compaction")
	}
	// The compacted log keeps appending normally.
	s.Put(KindFinding, "eeee", []byte("after"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len(KindVector) != 0 {
		t.Fatal("dropped vectors resurrected on reopen")
	}
	for _, key := range []string{"0000", "ffff", "eeee"} {
		if _, ok := s2.Get(KindFinding, key); !ok {
			t.Fatalf("reopen lost finding %s", key)
		}
	}
	if s2.Stats().Recovered != 0 {
		t.Fatalf("compacted log has torn bytes: %+v", s2.Stats())
	}
}

// TestCompactInterruptedLeavesOriginal pins the crash-safety of the tail
// swap from both sides: a failed temp write aborts with the original log
// (and in-memory state) untouched, and a leftover temp from a crashed
// compaction is discarded by the next open.
func TestCompactInterruptedLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(13, fault.Plan{
		fault.SiteStoreWrite: {ErrorRate: 1, Budget: 1},
	})
	inj.Disable()
	s, err := Open(dir, faultOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindFinding, "aaaa", []byte("v"))
	s.Put(KindVector, "aaaa/11", []byte("vec"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// The compaction's temp write fails: atomic-or-nothing means no state
	// change and no temp debris.
	inj.Enable()
	if _, err := s.Compact(func(kind Kind, _ string, _ []byte) bool { return kind != KindVector }); err == nil {
		t.Fatal("Compact succeeded despite injected write failure")
	}
	st := s.Stats()
	if st.Vectors != 1 || st.Findings != 1 || st.Compactions != 0 {
		t.Fatalf("failed compact mutated state: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, shardName(0)+compactSuffix)); !os.IsNotExist(err) {
		t.Fatalf("failed compact left temp file: %v", err)
	}
	// The store still works end to end after the aborted compaction.
	s.Put(KindFinding, "bbbb", []byte("w"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash AFTER writing the temp but BEFORE the rename: the next open
	// deletes the temp and serves the original log.
	tmp := filepath.Join(dir, shardName(0)+compactSuffix)
	if err := os.WriteFile(tmp, []byte(magic), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("open kept the stale compact temp: %v", err)
	}
	if s2.Len(KindFinding) != 2 || s2.Len(KindVector) != 1 {
		t.Fatalf("original log not authoritative after crashed compaction: %+v", s2.Stats())
	}
}

// TestShardedConcurrentFlush exercises the logical durability barrier under
// concurrent multi-shard traffic with per-shard committers running.
func TestShardedConcurrentFlush(t *testing.T) {
	dir := t.TempDir()
	sh, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 6, 30
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%02x%04x", w, i)
				if _, err := sh.Put(KindFinding, key, []byte(key)); err != nil {
					errs[w] = err
					return
				}
				if i%8 == 7 {
					if err := sh.Flush(); err != nil {
						errs[w] = err
						return
					}
				}
			}
			errs[w] = sh.Flush()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := sh.Stats(); st.Pending != 0 || st.PutNew != writers*perWriter {
		t.Fatalf("after barriers: %+v", st)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	sh2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if n := sh2.Len(KindFinding); n != writers*perWriter {
		t.Fatalf("reopen holds %d findings, want %d", n, writers*perWriter)
	}
}
