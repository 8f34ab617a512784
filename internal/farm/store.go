package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Store is the farm's durable measurement store. The on-disk layout is a
// checkpoint file in the pre-farm cache format — a flat JSON object mapping
// measurement key to value, so existing `.empirico-cache/measurements-*.json`
// files load unchanged — plus a sibling append-only journal
// (`<checkpoint>.journal`, one JSON object per line) that records results the
// moment they finish. A crash between checkpoints loses nothing: Open replays
// the journal over the checkpoint. Checkpoint folds the journal into the
// checkpoint file via temp-file + atomic rename and then truncates the
// journal, so a crash during checkpointing is also safe.
type Store struct {
	mu      sync.Mutex
	path    string // checkpoint path; "" means memory-only
	journal *os.File
	m       map[string]float64
	pending int // journal entries not yet folded into the checkpoint
	log     io.Writer
}

// KV is one stored measurement on the wire and in the journal: the
// measurement key and its value. It is the unit of Put, Entries and Merge,
// so the distributed plane can ship stores between processes in exactly the
// representation the journal persists.
type KV struct {
	K string  `json:"k"`
	V float64 `json:"v"`
}

// MemStore returns a store with no backing files — the configuration used
// when the harness has no cache directory.
func MemStore() *Store {
	return &Store{m: map[string]float64{}}
}

// Open loads (or creates) a durable store at path. A corrupt or truncated
// checkpoint (readCheckpoint) is logged and discarded — the store starts
// fresh rather than silently serving a partial cache — and journal replay
// stops at a truncated final line from a crashed writer. Progress messages
// go to logTo when non-nil.
func Open(path string, logTo io.Writer) (*Store, error) {
	s := &Store{path: path, m: map[string]float64{}, log: logTo}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if data, err := os.ReadFile(path); err == nil {
		if m, err := readCheckpoint(data); err != nil {
			s.logf("farm: cache %s is corrupt (%v); starting fresh", path, err)
		} else {
			s.m = m
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	valid, size, err := s.replayJournal()
	if err != nil {
		return nil, err
	}
	j, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// The next append must start a line of its own: cut the journal back to
	// its replayed prefix and end that prefix's last line. Appended after a
	// torn or unterminated line, the next record would join it, and the next
	// replay would drop it and everything after it.
	if len(valid) < size {
		err = j.Truncate(int64(len(valid)))
	}
	if n := len(valid); err == nil && n > 0 && valid[n-1] != '\n' {
		_, err = j.Write([]byte{'\n'})
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	s.journal = j
	return s, nil
}

func (s *Store) journalPath() string { return s.path + ".journal" }

func (s *Store) logf(format string, args ...interface{}) {
	if s.log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// replayJournal applies the journal over the loaded checkpoint, line by
// line, up to the first line that is not a record (readRecord): a torn final
// write from a crash, or a damaged line. Anything after it is
// untrustworthy, so replay stops there rather than resync. It returns the replayed prefix of the journal and the
// journal's full size.
func (s *Store) replayJournal() (valid []byte, size int, err error) {
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	replayed, bad, good := 0, 0, 0
	for good < len(data) {
		line, _, _ := bytes.Cut(data[good:], []byte{'\n'})
		if len(line) > 0 {
			e, ok := readRecord(line)
			if !ok {
				bad++
				break
			}
			s.m[e.K] = e.V
			replayed++
		}
		good = min(good+len(line)+1, len(data))
	}
	s.pending = replayed
	if replayed > 0 || bad > 0 {
		s.logf("farm: journal replay: %d entries recovered, %d corrupt lines dropped", replayed, bad)
	}
	return data[:good], len(data), nil
}

// get returns the stored value for key.
func (s *Store) get(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Get2 looks up two keys under one lock acquisition (the farm stores a
// cycles and an energy entry per simulation and needs both for a hit).
func (s *Store) Get2(k1, k2 string) (float64, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v1, ok1 := s.m[k1]
	v2, ok2 := s.m[k2]
	return v1, v2, ok1 && ok2
}

// Put records the key/value pairs in memory and appends them to the journal
// so they survive a crash before the next checkpoint. Pairs alternate
// key, value semantics via the kv slice of entries.
func (s *Store) Put(entries ...KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(entries)
}

func (s *Store) putLocked(entries []KV) error {
	for _, e := range entries {
		s.m[e.K] = e.V
	}
	if s.journal == nil {
		return nil
	}
	var buf []byte
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	// One write per batch keeps lines whole on disk barring a torn page;
	// replay handles the torn case anyway.
	if _, err := s.journal.Write(buf); err != nil {
		return err
	}
	s.pending += len(entries)
	return nil
}

// Entries returns every stored measurement, in no particular order: Merge's
// outcome does not depend on the order it is given.
func (s *Store) Entries() []KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]KV, 0, len(s.m))
	for k, v := range s.m {
		entries = append(entries, KV{K: k, V: v})
	}
	return entries
}

// Merge folds a delta from another store into this one, last-write-wins:
// an entry whose key is absent is added, an entry equal to the stored value
// is skipped (so replaying the same delta is a no-op that journals
// nothing), and an entry that disagrees overwrites and is counted as a
// conflict. Only changed entries touch the journal, which is what makes
// merge idempotent on disk as well as in memory.
func (s *Store) Merge(entries []KV) (added, conflicts int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := make([]KV, 0, len(entries))
	for _, e := range entries {
		old, ok := s.m[e.K]
		switch {
		case !ok:
			added++
		case old == e.V:
			continue
		default:
			conflicts++
		}
		changed = append(changed, e)
	}
	if len(changed) == 0 {
		return 0, 0, nil
	}
	return added, conflicts, s.putLocked(changed)
}

// Entry builds a journal entry; exported so callers can batch Put calls.
func Entry(key string, v float64) KV { return KV{K: key, V: v} }

// Checkpoint folds the journal into the checkpoint file: the full map is
// written to a temp file, synced, atomically renamed over the checkpoint,
// and only then is the journal truncated. Readers of the old cache format
// see either the previous checkpoint or the new one, never a partial write.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	if s.pending == 0 {
		// Nothing new since the last checkpoint (or load); skip the write
		// but still make sure a checkpoint file exists for fresh stores.
		if _, err := os.Stat(s.path); err == nil {
			return nil
		}
	}
	data, err := json.Marshal(s.m)
	if err != nil {
		return err
	}
	// Without the directory fsync inside WriteFileAtomic a crash right after
	// the rename could resurrect the old checkpoint — after the journal below
	// has already been truncated, losing the delta.
	if err := WriteFileAtomic(s.path, data); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.Truncate(0); err != nil {
			return err
		}
		if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	s.pending = 0
	return nil
}

// WriteFileAtomic replaces path with data so that a reader, or a crash,
// sees the old file or the new one, never a partial write: it writes
// path + ".tmp", fsyncs it, renames it over path and fsyncs the directory,
// so the rename itself is durable. Every error is returned, and a failed
// write removes the temp file. One writer per path at a time.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close checkpoints (when durable) and releases the journal handle.
func (s *Store) Close() error {
	err := s.Checkpoint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
		s.journal = nil
	}
	return err
}

// readCheckpoint parses a checkpoint: a JSON object whose every value is a
// number, or null. The text Checkpoint writes is read directly (scanner);
// any other JSON goes through encoding/json, under the same rule.
func readCheckpoint(data []byte) (map[string]float64, error) {
	if m, ok := scanCheckpoint(data); ok {
		return m, nil
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(raw))
	for k, v := range raw {
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("the value of %q is not a number", k)
		}
		m[k] = f
	}
	return m, nil
}

// readRecord parses one journal line. A record is a JSON object with exactly
// the members k, a string, and v, a number; a repeated member counts once,
// at its last value, as encoding/json reads it. The text Put writes is read
// directly (scanner); any other JSON goes through encoding/json.
func readRecord(line []byte) (KV, bool) {
	if e, ok := scanRecord(line); ok {
		return e, true
	}
	var raw map[string]any
	if json.Unmarshal(line, &raw) != nil || len(raw) != 2 {
		return KV{}, false
	}
	k, okK := raw["k"].(string)
	v, okV := raw["v"].(float64)
	return KV{K: k, V: v}, okK && okV
}

// scanCheckpoint reads the checkpoint text json.Marshal writes for the
// store's map. ok is false for any other text, valid JSON or not.
func scanCheckpoint(data []byte) (m map[string]float64, ok bool) {
	sc := scanner{b: data}
	if !sc.lit("{") {
		return nil, false
	}
	m = make(map[string]float64, bytes.Count(data, []byte{','})+1)
	if sc.lit("}") {
		return m, sc.done()
	}
	for {
		k, ok := sc.str()
		if !ok || !sc.lit(":") {
			return nil, false
		}
		if m[k], ok = sc.num(); !ok {
			return nil, false
		}
		if sc.lit("}") {
			return m, sc.done()
		}
		if !sc.lit(",") {
			return nil, false
		}
	}
}

// scanRecord reads the journal line json.Marshal writes for a KV. ok is
// false for any other text, valid JSON or not.
func scanRecord(line []byte) (e KV, ok bool) {
	sc := scanner{b: line}
	if !sc.lit(`{"k":`) {
		return e, false
	}
	if e.K, ok = sc.str(); !ok || !sc.lit(`,"v":`) {
		return e, false
	}
	if e.V, ok = sc.num(); !ok || !sc.lit("}") {
		return e, false
	}
	return e, sc.done()
}

// scanner reads the subset of JSON that json.Marshal writes for the store's
// records: no whitespace, strings of printable ASCII with no escapes, and
// numbers, which it parses as encoding/json does. Every method reports false
// on text outside the subset.
type scanner struct {
	b []byte
	i int
}

func (sc *scanner) done() bool { return sc.i == len(sc.b) }

// lit consumes s.
func (sc *scanner) lit(s string) bool {
	if !bytes.HasPrefix(sc.b[sc.i:], []byte(s)) {
		return false
	}
	sc.i += len(s)
	return true
}

// str consumes a quoted string of printable ASCII other than the quote and
// the backslash.
func (sc *scanner) str() (string, bool) {
	if !sc.lit(`"`) {
		return "", false
	}
	for j := sc.i; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			s := string(sc.b[sc.i:j])
			sc.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// num consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it with
// strconv.ParseFloat, as encoding/json does; out of range is not a number.
func (sc *scanner) num() (float64, bool) {
	start := sc.i
	sc.lit("-")
	if !sc.lit("0") && !sc.digits() {
		return 0, false
	}
	if sc.lit(".") && !sc.digits() {
		return 0, false
	}
	if sc.lit("e") || sc.lit("E") {
		if !sc.lit("+") {
			sc.lit("-")
		}
		if !sc.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(sc.b[start:sc.i]), 64)
	return v, err == nil
}

// digits consumes one or more decimal digits.
func (sc *scanner) digits() bool {
	j := sc.i
	for j < len(sc.b) && '0' <= sc.b[j] && sc.b[j] <= '9' {
		j++
	}
	ok := j > sc.i
	sc.i = j
	return ok
}
