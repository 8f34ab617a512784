package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/workloads"
)

// artifactSchema versions the artifact file wrapper (the per-model payloads
// carry model.SchemaVersion independently). Bump it when the fingerprint or
// layout changes incompatibly.
const artifactSchema = 1

// NoArtifactError reports a (workload, scale) pair with no persisted
// artifact. A read-only replica maps it to 503 with a retry hint: the
// writer owns training, so the artifact will appear once the writer has
// fitted and persisted it.
type NoArtifactError struct {
	Key string
}

func (e *NoArtifactError) Error() string {
	return fmt.Sprintf("serve: no persisted artifact for %s; the writer must train it first", e.Key)
}

// CorruptArtifactError reports an artifact file that exists but cannot be
// decoded or evaluated (torn write, version skew, bit flip, tampering). Warm
// boot logs and skips these — one bad file must never abort serving — and
// the writer refits lazily on the first request for the pair.
type CorruptArtifactError struct {
	Path   string
	Reason string
}

func (e *CorruptArtifactError) Error() string {
	return fmt.Sprintf("serve: corrupt artifact %s: %s", e.Path, e.Reason)
}

// Fingerprint records what produced an artifact: the training identity
// (workload, scale), the model kinds fitted, and a hash of the coded
// training matrix. Load verifies the identity fields; the hash lets
// operators diff artifact provenance across writers.
type Fingerprint struct {
	Workload    string   `json:"workload"` // benchmark name, e.g. "179.art"
	Input       string   `json:"input"`    // input label, e.g. "train"
	Class       string   `json:"class"`    // input class: train|ref
	Scale       string   `json:"scale"`    // harness scale the fit used
	Kinds       []string `json:"kinds"`    // model kinds, sorted
	Points      int      `json:"points"`   // training design size
	DatasetHash string   `json:"dataset_hash"`
}

// artifactFile is the on-disk layout: a schema version, the fingerprint,
// the coded space the models predict over, the training matrix effect
// ranking averages over, and one versioned model payload per kind.
type artifactFile struct {
	Schema      int                        `json:"schema"`
	Fingerprint Fingerprint                `json:"fingerprint"`
	Space       []doe.Var                  `json:"space"`
	TrainX      [][]float64                `json:"train_x"`
	Models      map[string]json.RawMessage `json:"models"`
}

// ArtifactStore persists fitted model sets, one file per (workload, scale)
// pair, under a single directory. Writes are atomic (temp file + rename +
// directory fsync), so readers — including a replica re-scanning the
// directory mid-write — only ever observe complete artifacts.
type ArtifactStore struct {
	dir string
	log io.Writer
}

// OpenArtifacts opens (creating if needed) an artifact directory.
func OpenArtifacts(dir string, log io.Writer) (*ArtifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: artifact dir: %w", err)
	}
	return &ArtifactStore{dir: dir, log: log}, nil
}

func (s *ArtifactStore) logf(format string, args ...interface{}) {
	if s.log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// fileName maps a (workload, scale) pair to its artifact file. Workload
// keys ("164.gzip-graphic") and scale names are filesystem-safe already;
// the "@" separator keeps the pair parseable by eye.
func fileName(w workloads.Workload, scale string) string {
	return w.Key() + "@" + scale + ".model.json"
}

// Path returns where the artifact for (w, scale) lives.
func (s *ArtifactStore) Path(w workloads.Workload, scale string) string {
	return filepath.Join(s.dir, fileName(w, scale))
}

// datasetHash fingerprints the coded training matrix: fnv64a over the
// IEEE-754 bits of every coordinate, row-major.
func datasetHash(trainX [][]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range trainX {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// Save atomically persists one artifact set. A crash mid-save leaves the
// previous version (or nothing) in place, never a torn file.
func (s *ArtifactStore) Save(art *Artifacts, scale string) error {
	kinds := make([]string, 0, len(art.Models))
	encoded := make(map[string]json.RawMessage, len(art.Models))
	for kind, m := range art.Models {
		data, err := model.Encode(m)
		if err != nil {
			return fmt.Errorf("serve: encode %s/%s: %w", art.Workload.Key(), kind, err)
		}
		encoded[kind] = data
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	file := artifactFile{
		Schema: artifactSchema,
		Fingerprint: Fingerprint{
			Workload:    art.Workload.Name,
			Input:       art.Workload.Input,
			Class:       string(art.Workload.Class),
			Scale:       scale,
			Kinds:       kinds,
			Points:      len(art.TrainX),
			DatasetHash: datasetHash(art.TrainX),
		},
		Space:  art.Space.Vars,
		TrainX: art.TrainX,
		Models: encoded,
	}
	data, err := json.Marshal(&file)
	if err != nil {
		return fmt.Errorf("serve: marshal artifact: %w", err)
	}

	if err := farm.WriteFileAtomic(s.Path(art.Workload, scale), data); err != nil {
		return fmt.Errorf("serve: artifact write: %w", err)
	}
	return nil
}

// Load reads and decodes the artifact for (w, scale). A missing file is
// *NoArtifactError; anything undecodable, and any model that cannot be
// evaluated on the artifact's space or predicts a non-finite value at one of
// its training rows, is *CorruptArtifactError.
func (s *ArtifactStore) Load(w workloads.Workload, scale string) (*Artifacts, error) {
	art, _, err := s.loadPath(s.Path(w, scale), w.Key()+"|"+scale)
	return art, err
}

func (s *ArtifactStore) loadPath(path, key string) (*Artifacts, Fingerprint, error) {
	var fp Fingerprint
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fp, &NoArtifactError{Key: key}
	}
	if err != nil {
		return nil, fp, &CorruptArtifactError{Path: path, Reason: err.Error()}
	}
	var file artifactFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fp, &CorruptArtifactError{Path: path, Reason: err.Error()}
	}
	fp = file.Fingerprint
	if file.Schema != artifactSchema {
		return nil, fp, &CorruptArtifactError{Path: path,
			Reason: fmt.Sprintf("schema version %d (this build reads %d)", file.Schema, artifactSchema)}
	}
	w, err := workloads.Get(file.Fingerprint.Workload, workloads.InputClass(file.Fingerprint.Class))
	if err != nil {
		return nil, fp, &CorruptArtifactError{Path: path, Reason: err.Error()}
	}
	if len(file.Space) == 0 || len(file.Models) == 0 || file.Fingerprint.Scale == "" {
		return nil, fp, &CorruptArtifactError{Path: path, Reason: "empty space, model set or fingerprint"}
	}
	// Every model must evaluate on the artifact's own space: a flipped
	// variable index or a short centre would otherwise load fine and then
	// panic every request that reads it.
	dim := len(file.Space)
	for i, row := range file.TrainX {
		if len(row) != dim {
			return nil, fp, &CorruptArtifactError{Path: path,
				Reason: fmt.Sprintf("train_x row %d has %d values, the space has %d", i, len(row), dim)}
		}
	}
	models := make(map[string]model.Model, len(file.Models))
	for kind, raw := range file.Models {
		m, err := model.Decode(raw)
		if err == nil {
			err = model.CheckDim(m, dim)
		}
		if err != nil {
			return nil, fp, &CorruptArtifactError{Path: path, Reason: kind + ": " + err.Error()}
		}
		for i, row := range file.TrainX {
			if y := m.Predict(row); math.IsNaN(y) || math.IsInf(y, 0) {
				return nil, fp, &CorruptArtifactError{Path: path,
					Reason: fmt.Sprintf("%s: predicts %v at train_x row %d", kind, y, i)}
			}
		}
		models[kind] = m
	}
	art := &Artifacts{
		Workload: w,
		Space:    &doe.Space{Vars: file.Space},
		Models:   models,
		TrainX:   file.TrainX,
	}
	return art, fp, nil
}

// Loaded is one artifact read off disk, with the scale it was trained at.
type Loaded struct {
	Art   *Artifacts
	Scale string
}

// LoadAll scans the directory and decodes every artifact (every
// *.model.json; a leftover temp file of an interrupted Save is not one).
// Undecodable files are logged and skipped — a corrupt artifact must never
// abort a boot or a reload — and the count of skips is returned alongside
// the successfully loaded set.
func (s *ArtifactStore) LoadAll() ([]Loaded, int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: artifact scan: %w", err)
	}
	var out []Loaded
	skipped := 0
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".model.json") {
			continue
		}
		// The scale is authoritative in the fingerprint, not the filename.
		art, fp, err := s.loadPath(filepath.Join(s.dir, name), strings.TrimSuffix(name, ".model.json"))
		if err != nil {
			skipped++
			s.logf("artifact skip: %v", err)
			continue
		}
		out = append(out, Loaded{Art: art, Scale: fp.Scale})
	}
	return out, skipped, nil
}
