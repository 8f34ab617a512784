package farm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Entry("a", 1.5), Entry("a|energy", 2.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint file must be the legacy flat-JSON cache format.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("checkpoint not legacy-format JSON: %v", err)
	}
	if m["a"] != 1.5 || m["a|energy"] != 2.5 {
		t.Fatalf("checkpoint contents: %v", m)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after checkpoint")
	}

	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.get("a"); !ok || v != 1.5 {
		t.Fatalf("reopened store: %v %v", v, ok)
	}
}

func TestStoreJournalSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Entry("k1", 10), Entry("k2", 20)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Checkpoint, no Close. The checkpoint file does
	// not exist yet, but the journal must carry the results.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("checkpoint unexpectedly written")
	}
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.get("k1"); !ok || v != 10 {
		t.Fatalf("journal replay lost k1: %v %v", v, ok)
	}
	if v, ok := s2.get("k2"); !ok || v != 20 {
		t.Fatalf("journal replay lost k2: %v %v", v, ok)
	}
}

func TestStoreRecoversFromCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	if err := os.WriteFile(path, []byte(`{"a": 1.0, "b":`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatalf("corrupt checkpoint must not fail Open: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("corrupt checkpoint partially loaded: %d entries", s.Len())
	}
	// The store must remain fully usable after recovery.
	if err := s.Put(Entry("fresh", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.get("fresh"); !ok || v != 3 {
		t.Fatalf("post-recovery checkpoint lost data: %v %v", v, ok)
	}
}

func TestStoreToleratesTruncatedJournalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "measurements-test.json")
	journal := `{"k":"good","v":42}` + "\n" + `{"k":"torn","v":4` // crash mid-write
	if err := os.WriteFile(path+".journal", []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok := s.get("good"); !ok || v != 42 {
		t.Fatalf("intact journal line lost: %v %v", v, ok)
	}
	if _, ok := s.get("torn"); ok {
		t.Fatal("torn journal line must not be replayed")
	}
}

func TestStoreCheckpointTruncatesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(Entry("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("journal not truncated after checkpoint: %d bytes", info.Size())
	}
	// Appends after a checkpoint land at the start of the journal again.
	if err := s.Put(Entry("y", 2)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.get("y"); !ok || v != 2 {
		t.Fatalf("post-checkpoint journal entry lost: %v %v", v, ok)
	}
}

func TestMemStoreNoFiles(t *testing.T) {
	s := MemStore()
	if err := s.Put(Entry("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.get("a"); !ok || v != 1 {
		t.Fatalf("mem store lost value: %v %v", v, ok)
	}
}

// TestCheckpointCrashBeforeRenameRecovers simulates a crash in the
// vulnerable window of Checkpoint — after the temp file is written but
// before the atomic rename — and asserts nothing is lost: the journal still
// holds every measurement (it is only truncated after the rename lands), the
// stale temp file is ignored on reopen, and a subsequent Checkpoint repairs
// the on-disk state.
func TestCheckpointCrashBeforeRenameRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Entry("a", 1), Entry("b", 2)); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: hand-write the temp file Checkpoint would have
	// produced (even a complete one — the crash means the rename never
	// happened) and abandon the store without Checkpoint or Close.
	if err := os.WriteFile(path+".tmp", []byte(`{"a":1`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.get("a"); !ok || v != 1 {
		t.Fatalf("journal replay lost a: %v %v", v, ok)
	}
	if v, ok := s2.get("b"); !ok || v != 2 {
		t.Fatalf("journal replay lost b: %v %v", v, ok)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The repaired checkpoint alone (journal now truncated) carries both.
	s3, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("repaired store has %d entries, want 2", s3.Len())
	}
}

func TestStoreSinceCursor(t *testing.T) {
	s := MemStore()
	if err := s.Put(Entry("a", 1), Entry("b", 2)); err != nil {
		t.Fatal(err)
	}
	all, next := s.Since(0)
	if len(all) != 2 || next != 2 {
		t.Fatalf("Since(0) = %v, next %d; want 2 entries, next 2", all, next)
	}
	if err := s.Put(Entry("c", 3)); err != nil {
		t.Fatal(err)
	}
	delta, next2 := s.Since(next)
	if len(delta) != 1 || delta[0].K != "c" || delta[0].V != 3 || next2 != 3 {
		t.Fatalf("Since(%d) = %v, next %d; want just c, next 3", next, delta, next2)
	}
	if empty, _ := s.Since(next2); len(empty) != 0 {
		t.Fatalf("Since at head returned %v", empty)
	}
	// Out-of-range cursors (negative, or from another store lifetime with a
	// longer order) fall back to a full resend — safe because Merge skips
	// entries the receiver already holds.
	for _, cur := range []int{-1, next2 + 10} {
		if got, _ := s.Since(cur); len(got) != 3 {
			t.Fatalf("Since(%d) = %d entries, want full resend of 3", cur, len(got))
		}
	}
}

func TestStoreMergeIdempotentAndLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "merged.json")
	dst, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := []KV{{K: "a", V: 1}, {K: "b", V: 2}}

	added, conflicts, err := dst.Merge(delta)
	if err != nil || added != 2 || conflicts != 0 {
		t.Fatalf("first merge: added=%d conflicts=%d err=%v", added, conflicts, err)
	}
	journalLen := func() int64 {
		fi, err := os.Stat(path + ".journal")
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := journalLen()

	// Replaying the identical delta is a no-op in memory and on disk.
	added, conflicts, err = dst.Merge(delta)
	if err != nil || added != 0 || conflicts != 0 {
		t.Fatalf("replayed merge: added=%d conflicts=%d err=%v", added, conflicts, err)
	}
	if after := journalLen(); after != before {
		t.Fatalf("idempotent merge grew the journal: %d -> %d bytes", before, after)
	}

	// A disagreeing entry overwrites (last write wins) and counts as a
	// conflict; the overwrite is journaled.
	added, conflicts, err = dst.Merge([]KV{{K: "a", V: 9}})
	if err != nil || added != 0 || conflicts != 1 {
		t.Fatalf("conflicting merge: added=%d conflicts=%d err=%v", added, conflicts, err)
	}
	if v, _ := dst.get("a"); v != 9 {
		t.Fatalf("conflict did not overwrite: a = %v", v)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	// Merged state survives reopen like any Put.
	re, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, _ := re.get("a"); v != 9 {
		t.Fatalf("reopened merged store: a = %v, want 9", v)
	}
	if v, _ := re.get("b"); v != 2 {
		t.Fatalf("reopened merged store: b = %v, want 2", v)
	}
}

func TestStoreSinceMergeShipsWholeStore(t *testing.T) {
	// The worker-side flow: a store reopened from checkpoint+journal ships
	// its entire contents from cursor 0, and a fresh receiver reconstructs it
	// exactly.
	dir := t.TempDir()
	src, err := Open(filepath.Join(dir, "worker.json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put(Entry("a", 1), Entry("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	src, err = Open(filepath.Join(dir, "worker.json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	delta, _ := src.Since(0)
	dst := MemStore()
	if added, conflicts, err := dst.Merge(delta); err != nil || added != 2 || conflicts != 0 {
		t.Fatalf("merge of reopened store: added=%d conflicts=%d err=%v", added, conflicts, err)
	}
	want := src.snapshot()
	got := dst.snapshot()
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: merged %v, want %v", k, got[k], v)
		}
	}
}
