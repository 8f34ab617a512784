package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/workloads"
)

// Len reports the number of stored measurements.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// snapshot returns a copy of the store contents.
func (s *Store) snapshot() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.m)
}

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

// TestStoreSurvivesTwoCrashes: a store reopened over a torn journal line
// must not append its next record onto that line, or a second crash before
// a checkpoint loses the record on the next replay.
func TestStoreSurvivesTwoCrashes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	journal := `{"k":"a","v":1}` + "\n" + `{"k":"b","v` // first crash mid-write
	if err := os.WriteFile(path+".journal", []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Entry("c", 3)); err != nil {
		t.Fatal(err)
	}
	s.journal.Close() // second crash: no checkpoint
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, want := range map[string]float64{"a": 1, "c": 3} {
		if v, ok := s2.get(k); !ok || v != want {
			t.Errorf("%s after the second crash: %v %v, want %v", k, v, ok, want)
		}
	}
}

// TestStoreRejectsDamagedRecords: encoding/json ignores unknown fields and
// null, so a damaged record would load as a zero. A journal line that is not
// exactly a string k and a number v ends the replay as a torn line does, and
// a checkpoint value that is not a number makes the checkpoint corrupt.
func TestStoreRejectsDamagedRecords(t *testing.T) {
	open := func(t *testing.T, ckpt, journal string) *Store {
		t.Helper()
		path := filepath.Join(t.TempDir(), "measurements-test.json")
		if ckpt != "" {
			if err := os.WriteFile(path, []byte(ckpt), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path+".journal", []byte(journal), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	ok := `{"k":"a","v":1}` + "\n"
	for _, damaged := range []string{
		`{"k":"b","6":2}`, // one bit flipped in "v"
		`{"v":3}`,
		`{"k":null,"v":3}`,
		`{"k":"b","v":null}`,
		`{"k":"b","v":"2"}`,
		`{"k":"b","v":2,"x":0}`,
		`{"K":"b","v":2}`,
		`["b",2]`,
	} {
		s := open(t, "", ok+damaged+"\n"+`{"k":"c","v":3}`+"\n")
		if want := map[string]float64{"a": 1}; !maps.Equal(s.m, want) {
			t.Errorf("journal line %s: recovered %v, want %v", damaged, s.m, want)
		}
	}
	for _, ckpt := range []string{`{"a":null,"b":1}`, `{"a":"1"}`, `{"a":{}}`, `{"a":true}`, `{"a":1e400}`} {
		if s := open(t, ckpt, ok); !maps.Equal(s.m, map[string]float64{"a": 1}) {
			t.Errorf("checkpoint %s: loaded %v, want it discarded", ckpt, s.m)
		}
	}
	// Valid JSON in another shape than the store writes still reads.
	s := open(t, `{ "x" : -0.5e1 , "\u0079":2, "x":1 }`, "\t{\"v\": 1e2, \"k\": \"z\"}\r\n"+ok)
	if want := map[string]float64{"x": 1, "y": 2, "z": 100, "a": 1}; !maps.Equal(s.m, want) {
		t.Errorf("canonical-equivalent store: %v, want %v", s.m, want)
	}
}

// TestStoreReadsWhatItWritesDirectly: every checkpoint and journal line the
// store writes is in the shape the scanner reads, and it reads the values
// json.Unmarshal reads, bit for bit.
func TestStoreReadsWhatItWritesDirectly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		1e21, 1e20, 1e-6, 1e-7, 123456789, 0.1, 2.5e-300}
	for range 200 {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)),
			float64(rng.Int63n(1<<53)), math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|uint64(rng.Intn(0x7ff))<<52))
	}
	job := testJob(1)
	path := filepath.Join(t.TempDir(), "measurements-test.json")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for i, v := range vals {
		k := fmt.Sprintf("%s#%d", EnergyKey(Key(job.Workload, job.Point)), i)
		want[k] = v
		if err := s.Put(Entry(k, v)); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(path + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(journal, []byte{'\n'}), []byte{'\n'}) {
		e, ok := scanRecord(line)
		var ref KV
		if err := json.Unmarshal(line, &ref); err != nil || !ok || e.K != ref.K ||
			math.Float64bits(e.V) != math.Float64bits(ref.V) {
			t.Fatalf("journal line %s: scanned %v %v, json %v %v", line, e, ok, ref, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := scanCheckpoint(ckpt)
	if !ok || len(m) != len(want) {
		t.Fatalf("checkpoint not read directly: ok %v, %d of %d entries", ok, len(m), len(want))
	}
	for k, v := range want {
		if math.Float64bits(m[k]) != math.Float64bits(v) {
			t.Fatalf("%s: scanned %v, wrote %v", k, m[k], v)
		}
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

// TestStoreEntriesMergeShipsWholeStore ships a reopened store's entries,
// checkpoint and journal alike, into an empty store through Merge.
func TestStoreEntriesMergeShipsWholeStore(t *testing.T) {
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

	delta := src.Entries()
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

// FuzzJournalReplay opens a store over an arbitrary checkpoint and journal.
// Open must neither fail nor panic; the entries it recovers from the journal
// must be exactly the journal's leading run of records, over the checkpoint
// when it holds only numbers; and a Put after Open must survive a crash before the next
// checkpoint, along with everything recovered. Explore with
// `go test ./internal/farm -run '^$' -fuzz FuzzJournalReplay`.
func FuzzJournalReplay(f *testing.F) {
	rec := func(k string, v float64) string { return fmt.Sprintf(`{"k":%q,"v":%v}`+"\n", k, v) }
	good := rec("a", 1) + rec("b", 2) + rec("c", 3)
	flipped := []byte(good)
	flipped[len(rec("a", 1))+3] ^= 0x40                      // bit flip in the second record
	f.Add([]byte(nil), []byte(good+`{"k":"d","v`))           // torn tail
	f.Add([]byte(nil), flipped)                              // bit flip
	f.Add([]byte(nil), []byte(good+rec("b", 2)+rec("d", 4))) // duplicated record
	f.Add([]byte(`{"a":1,"b":2,"c":3,"d":4}`), []byte(good)) // checkpoint newer than its journal
	f.Add([]byte(`null`), []byte(good+`{"k":"e","v":5}`))    // null checkpoint, unterminated last line
	// At the edges of the direct read: each falls to encoding/json, or is
	// not a record.
	f.Add([]byte(`{ "a" : 1 }`), []byte(`{"k": "b", "v": 2}`+"\n"+` {"k":"c","v":3}`+"\n"+rec("d", 4)))   // whitespace
	f.Add([]byte(`{"\u0061":1,"\"":2}`), []byte(`{"k":"\u00e9\n","v":2}`+"\n"+rec("d", 4)))               // escaped keys
	f.Add([]byte(`{"é":1}`), []byte(`{"k":"ü","v":2}`+"\n"+"{\"k\":\"\xff\xfe\",\"v\":3}\n"+rec("d", 4))) // non-ASCII and invalid UTF-8
	f.Add([]byte(`{"a":-0}`), []byte(`{"k":"b","v":-0}`+"\n"+rec("d", 4)))                                // -0
	f.Add([]byte(`{"a":1e400}`), []byte(good+`{"k":"b","v":1e400}`+"\n"+rec("d", 4)))                     // out of range
	f.Add([]byte(`{"a":01}`), []byte(good+`{"k":"b","v":01}`+"\n"+rec("d", 4)))                           // leading zero
	f.Add([]byte(`{"a":1,"a":2}`), []byte(`{"k":"b","k":"c","v":2}`+"\n"+`{"k":"d","v":1,"v":4}`+"\n"))   // duplicate keys
	f.Add([]byte(`{}`), []byte(`{}`+"\n"+rec("d", 4)))                                                    // {}
	f.Add([]byte(`{"a":1,}`), []byte(good+`{"k":"b","v":2,}`+"\n"+rec("d", 4)))                           // trailing comma
	f.Add([]byte(nil), []byte(`{"v":2,"k":"b"}`+"\n"+rec("d", 4)))                                        // v before k
	f.Add([]byte(`{"a":1,"b":{"c":2}}`), []byte(good+`{"k":"b","v":2,"x":0}`+"\n"+rec("d", 4)))           // extra field
	f.Add([]byte(`{"a":null}`), []byte(good+`{"k":"b","6":2}`+"\n"+rec("d", 4)))                          // null value, flipped "v"
	f.Fuzz(func(t *testing.T, ckpt, journal []byte) {
		path := filepath.Join(t.TempDir(), "measurements-fuzz.json")
		if len(ckpt) > 0 {
			if err := os.WriteFile(path, ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path+".journal", journal, 0o644); err != nil {
			t.Fatal(err)
		}

		// The oracle, by encoding/json: the checkpoint if it parses as an
		// object of numbers (or null), then the leading run of journal lines
		// that parse as an object of exactly a string k and a number v, in
		// order.
		want := map[string]float64{}
		var top map[string]any
		if json.Unmarshal(ckpt, &top) == nil {
			for k, v := range top {
				f, ok := v.(float64)
				if !ok {
					clear(want)
					break
				}
				want[k] = f
			}
		}
		var lines []KV
		for _, line := range bytes.Split(journal, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			var rec map[string]any
			if json.Unmarshal(line, &rec) != nil || len(rec) != 2 {
				break
			}
			k, okK := rec["k"].(string)
			v, okV := rec["v"].(float64)
			if !okK || !okV {
				break
			}
			lines = append(lines, KV{K: k, V: v})
			want[k] = v
		}

		s, err := Open(path, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if s.pending != len(lines) {
			t.Fatalf("recovered %d journal entries, want the %d leading valid lines", s.pending, len(lines))
		}
		if !maps.Equal(s.m, want) {
			t.Fatalf("recovered %v, want %v", s.m, want)
		}

		if err := s.Put(Entry("fuzz-put", 42)); err != nil {
			t.Fatal(err)
		}
		s.journal.Close() // crash: no checkpoint
		want["fuzz-put"] = 42
		s2, err := Open(path, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if !maps.Equal(s2.m, want) {
			t.Fatalf("after a Put and a crash: %v, want %v", s2.m, want)
		}
	})
}

var keySink string

// BenchmarkStoreHit answers a sweep's points from a reopened store: the warm
// path of every rerun from a cache. The store is sweep-sized: 68 points in
// the checkpoint and 18 in the journal, both responses each, over 179.art
// and 181.mcf. Each iteration opens it (open-us), keys its 86 points
// (key-ns per key), and answers them through Planner.DoJobs (hit-ns per
// point). There is no floor.
func BenchmarkStoreHit(b *testing.B) {
	var jobs []Job
	for i, name := range []string{"179.art", "181.mcf"} {
		w := workloads.MustGet(name, workloads.Train)
		for _, p := range doe.JointSpace().LatinHypercube(43, rand.New(rand.NewSource(int64(i+1)))) {
			jobs = append(jobs, Job{Workload: w, Point: p})
		}
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "measurements-bench.json")
	s, err := Open(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i, j := range jobs {
		if i == 68 {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		k := Key(j.Workload, j.Point)
		if err := s.Put(Entry(k, float64(1_000_000+i*7919)), Entry(EnergyKey(k), 1e6/float64(i+3))); err != nil {
			b.Fatal(err)
		}
	}
	s.journal.Close() // the journal keeps its 18 points
	ckpt, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	journal, err := os.ReadFile(path + ".journal")
	if err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	var openNS, keyNS, hitNS int64
	b.ResetTimer()
	for range b.N {
		if os.WriteFile(path, ckpt, 0o644) != nil || os.WriteFile(path+".journal", journal, 0o644) != nil {
			b.Fatal("rewriting the store")
		}
		t0 := time.Now()
		s, err := Open(path, nil)
		openNS += time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		for _, j := range jobs {
			keySink = Key(j.Workload, j.Point)
		}
		keyNS += time.Since(t0).Nanoseconds()
		p := NewPlanner(Options{Store: s}, func([]*Group) { b.Fatal("a stored point was executed") })
		t0 = time.Now()
		_, errs := p.DoJobs(ctx, jobs)
		hitNS += time.Since(t0).Nanoseconds()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		s.journal.Close() // no checkpoint: the next iteration reads the same files
	}
	n := float64(b.N)
	b.ReportMetric(float64(openNS)/n/1e3, "open-us")
	b.ReportMetric(float64(keyNS)/n/float64(len(jobs)), "key-ns")
	b.ReportMetric(float64(hitNS)/n/float64(len(jobs)), "hit-ns")
}
