package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// wrapFault adapts fault.NewFile to the Options.Wrap shim signature.
func wrapFault(inj *fault.Injector) func(File) File {
	return func(f File) File { return fault.NewFile(f, inj) }
}

// faultOptions opens through the fault shim with the committer's background
// retry disabled, so each injected failure is observed by the Flush that
// triggered it rather than silently repaired behind it.
func faultOptions(inj *fault.Injector) Options {
	return Options{Wrap: wrapFault(inj), Commit: GroupCommitOptions{RetryDelay: -1}}
}

// TestCommitFailureRetry pins the degraded-durability contract: a failed
// commit loses nothing — the record stays readable, pending, and the next
// Flush makes it durable.
func TestCommitFailureRetry(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(7, fault.Plan{
		fault.SiteStoreSync: {ErrorRate: 1, Budget: 1},
	})
	// recover() on an empty file syncs the header; spend no budget there.
	inj.Disable()
	s, err := Open(dir, faultOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindFinding, "aaaa", []byte("finding-a")); err != nil {
		t.Fatal(err)
	}
	inj.Enable()

	if err := s.Flush(); err == nil {
		t.Fatal("Flush succeeded despite injected fsync failure")
	}
	st := s.Stats()
	if st.CommitFails != 1 || st.Pending != 1 {
		t.Fatalf("after failed commit: CommitFails=%d Pending=%d", st.CommitFails, st.Pending)
	}
	// The record is still servable from memory.
	if v, ok := s.Get(KindFinding, "aaaa"); !ok || !bytes.Equal(v, []byte("finding-a")) {
		t.Fatalf("accepted record lost after failed commit: %q %v", v, ok)
	}
	// A duplicate Put is still deduplicated while pending.
	if added, _ := s.Put(KindFinding, "aaaa", []byte("finding-a")); added {
		t.Fatal("pending record not visible to dedup")
	}

	// Budget exhausted: the retry succeeds and drains the batch.
	if err := s.Flush(); err != nil {
		t.Fatalf("retry flush failed: %v", err)
	}
	st = s.Stats()
	if st.Pending != 0 || st.CommitFails != 1 {
		t.Fatalf("after retry: Pending=%d CommitFails=%d", st.Pending, st.CommitFails)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen sees the record: durability really happened.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(KindFinding, "aaaa"); !ok || !bytes.Equal(v, []byte("finding-a")) {
		t.Fatalf("reopened store missing record: %q %v", v, ok)
	}
	if s2.Stats().Recovered != 0 {
		t.Fatalf("clean shutdown left torn bytes: %+v", s2.Stats())
	}
}

// TestRecoveryAfterTornCommit pins crash recovery when the rollback itself
// fails: a partial append whose cleanup truncate is also blocked leaves torn
// bytes on disk, and Open truncates them back to the last intact record. No
// committed record is lost.
func TestRecoveryAfterTornCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindFinding, "aaaa", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen through the fault shim: the next commit's Write lands only half
	// the batch, and the rollback Truncate is blocked too — the torn tail
	// stays on disk, as after a crash or a wedged disk.
	inj := fault.New(11, fault.Plan{
		fault.SiteStoreWrite:    {ErrorRate: 1, Budget: 1},
		fault.SiteStoreTruncate: {ErrorRate: 1, Budget: 1},
	})
	s, err = Open(dir, faultOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindFinding, "bbbb", []byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush succeeded despite injected partial write")
	}
	// Abandon the store without Close, like a crash.

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Recovered == 0 {
		t.Fatalf("no torn tail recovered: %+v", s2.Stats())
	}
	if v, ok := s2.Get(KindFinding, "aaaa"); !ok || !bytes.Equal(v, []byte("committed")) {
		t.Fatalf("committed record lost to recovery: %q %v", v, ok)
	}
	if _, ok := s2.Get(KindFinding, "bbbb"); ok {
		t.Fatal("torn record resurrected")
	}
	// The recovered log accepts the record again and commits cleanly.
	if added, err := s2.Put(KindFinding, "bbbb", []byte("torn")); err != nil || !added {
		t.Fatalf("re-Put after recovery: added=%v err=%v", added, err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenLog opens arbitrary bytes as a shard log. Open must return an
// error or a store, never panic; and once a store opened, a clean Close
// followed by a reopen must hold exactly the same records with nothing left
// to recover — torn-tail truncation is idempotent.
func FuzzOpenLog(f *testing.F) {
	valid := []byte(magic)
	for _, rec := range []record{
		{kind: KindFinding, key: "00000000deadbeef", val: []byte(`{"outcome":"found"}`)},
		{kind: KindVector, key: "00000000deadbeef/01", val: []byte("vec")},
		{kind: KindRule, key: "learned:1", val: nil},
	} {
		valid = appendRecord(valid, rec)
	}
	torn := valid[:len(valid)-3]
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(valid)
	f.Add(torn)
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		want := dumpRecords(s)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after a clean close: %v", err)
		}
		defer s2.Close()
		if got := dumpRecords(s2); got != want {
			t.Fatalf("reopen changed the records:\n%s\n--vs--\n%s", want, got)
		}
		if r := s2.Stats().Recovered; r != 0 {
			t.Fatalf("reopen after a clean close recovered %d more bytes", r)
		}
	})
}

// dumpRecords renders every record of every shard in append order.
func dumpRecords(sh *Sharded) string {
	var b bytes.Buffer
	for _, s := range sh.shards {
		s.mu.RLock()
		for _, rec := range s.recs {
			fmt.Fprintf(&b, "%d %q %x\n", rec.kind, rec.key, rec.val)
		}
		s.mu.RUnlock()
	}
	return b.String()
}
