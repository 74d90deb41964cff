package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"jobench/internal/index"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// Key identifies one cacheable world: everything that determines the
// generated database and the query set run against it. Two opens with
// equal keys (and equal FormatVersion) may share snapshots; anything else
// lands in a different fingerprint directory and never collides.
type Key struct {
	// World names the workload and carries the generator inputs.
	World workload.Key
	// QueryHash is a content hash of the query set (WorkloadHash), so
	// editing any query invalidates cached truth.
	QueryHash string
}

// WorkloadHash fingerprints a workload by the id and SQL text of every
// query, so editing any query invalidates cached truth.
func WorkloadHash(qs []*query.Query) string {
	h := sha256.New()
	for _, q := range qs {
		io.WriteString(h, q.ID)
		io.WriteString(h, "\x00")
		io.WriteString(h, q.SQL())
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Fingerprint derives the content address of the key: the name of the
// cache subdirectory and the value embedded in every file frame. It hashes
// the format version alongside the key fields, so a version bump retires
// every old directory wholesale.
func (k Key) Fingerprint() string {
	s := fmt.Sprintf("jobench-snapshot|v%d|workload=%s|seed=%d|scale=%s|queries=%s",
		FormatVersion, k.World.Workload, k.World.Seed,
		strconv.FormatFloat(k.World.Scale, 'g', -1, 64), k.QueryHash)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

// ErrMiss reports that the requested artifact simply is not in the cache
// (as opposed to being present but unreadable). internal/world, the one
// consumer, regenerates silently on a miss and logs a warning on anything
// else.
var ErrMiss = errors.New("snapshot: not in cache")

// IsMiss reports whether err is a plain cache miss.
func IsMiss(err error) bool { return errors.Is(err, ErrMiss) }

// Store is one cache directory bound to one Key. All methods are safe for
// concurrent use: reads are plain file reads, and writes go through a
// temp-file-plus-rename so a crashed or racing writer can never leave a
// torn file (a torn rename target would fail the checksum and read as
// corruption, which callers already tolerate).
type Store struct {
	root    string
	key     Key
	fp      string
	workers int
}

// New opens (without touching the filesystem) the store for key under
// cacheDir. workers sizes the per-table encode/decode fan-out and follows
// the parallel.RunCells contract (<=0 means GOMAXPROCS).
func New(cacheDir string, key Key, workers int) *Store {
	return &Store{root: cacheDir, key: key, fp: key.Fingerprint(), workers: workers}
}

// Dir returns the fingerprint directory all of the store's files live in.
func (s *Store) Dir() string { return filepath.Join(s.root, s.fp) }

// Fingerprint returns the store's content address.
func (s *Store) Fingerprint() string { return s.fp }

const (
	dbFile       = "db.snap"
	manifestFile = "manifest.json"
	truthDir     = "truth"
)

// Manifest is the human-readable sidecar written next to the binary
// snapshots; `jobench snapshot inspect` renders it.
type Manifest struct {
	FormatVersion int     `json:"format_version"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale"`
	QueryHash     string  `json:"query_hash"`
}

func (s *Store) read(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.Dir(), name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrMiss, name)
	}
	return data, err
}

// write atomically replaces name with data and ensures the manifest
// exists.
func (s *Store) write(name string, data []byte) error {
	path := filepath.Join(s.Dir(), name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := s.writeManifest(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(name)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func (s *Store) writeManifest() error {
	path := filepath.Join(s.Dir(), manifestFile)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	m := Manifest{
		FormatVersion: FormatVersion,
		Workload:      s.key.World.Workload,
		Seed:          s.key.World.Seed,
		Scale:         s.key.World.Scale,
		QueryHash:     s.key.QueryHash,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadDatabase reads the cached database. It returns ErrMiss when no
// snapshot exists and a descriptive error when one exists but cannot be
// trusted (corruption, version or fingerprint mismatch).
func (s *Store) LoadDatabase() (*storage.Database, error) {
	data, err := s.read(dbFile)
	if err != nil {
		return nil, err
	}
	return DecodeDatabase(data, s.fp, s.workers)
}

// SaveDatabase writes the database snapshot.
func (s *Store) SaveDatabase(db *storage.Database) error {
	data, err := EncodeDatabase(db, s.fp, s.workers)
	if err != nil {
		return err
	}
	return s.write(dbFile, data)
}

// statsFile names the snapshot of one ANALYZE configuration: the facade
// and the experiments lab analyze the same database with different sample
// sizes (and the lab twice, with and without true distinct counts), so
// each Options value gets its own file.
func statsFile(opts stats.Options) string {
	td := 0
	if opts.TrueDistinct {
		td = 1
	}
	s := fmt.Sprintf("sample=%d|mcv=%d|hist=%d|td=%d|seed=%d",
		opts.SampleSize, opts.MCVTarget, opts.HistBuckets, td, opts.Seed)
	sum := sha256.Sum256([]byte(s))
	return "stats-" + hex.EncodeToString(sum[:])[:12] + ".snap"
}

// LoadStats reads the cached statistics for one ANALYZE configuration.
func (s *Store) LoadStats(opts stats.Options) (*stats.DB, error) {
	data, err := s.read(statsFile(opts))
	if err != nil {
		return nil, err
	}
	return DecodeStats(data, s.fp)
}

// SaveStats writes the statistics snapshot for one ANALYZE configuration.
func (s *Store) SaveStats(opts stats.Options, sdb *stats.DB) error {
	return s.write(statsFile(opts), EncodeStats(sdb, s.fp))
}

// indexesFile names the snapshot of one physical design. config is a
// caller-chosen filename-safe label ("none", "pk", "pkfk").
func indexesFile(config string) string {
	return "indexes-" + config + ".snap"
}

// LoadIndexes reads the cached index set of one physical design, validating
// it against db (row-id bounds, known tables and columns).
func (s *Store) LoadIndexes(config string, db *storage.Database) (*index.Set, error) {
	data, err := s.read(indexesFile(config))
	if err != nil {
		return nil, err
	}
	return DecodeIndexes(data, s.fp, db, s.workers)
}

// SaveIndexes writes the index snapshot of one physical design.
func (s *Store) SaveIndexes(config string, set *index.Set) error {
	data, err := EncodeIndexes(set, s.fp, s.workers)
	if err != nil {
		return err
	}
	return s.write(indexesFile(config), data)
}

// truthFile names one query's truth snapshot. Workload ids ("1a".."33c")
// pass through; anything a user registered with an unruly name is hashed
// into a safe filename.
func truthFile(qid string) string {
	safe := qid != "" && qid != "." && qid != ".."
	for i := 0; safe && i < len(qid); i++ {
		c := qid[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			safe = false
		}
	}
	if !safe {
		sum := sha256.Sum256([]byte(qid))
		qid = "q-" + hex.EncodeToString(sum[:])[:16]
	}
	return filepath.Join(truthDir, qid+".snap")
}

// LoadTruth reads the cached truth store of g's query.
func (s *Store) LoadTruth(g *query.Graph) (*truecard.Store, error) {
	data, err := s.read(truthFile(g.Q.ID))
	if err != nil {
		return nil, err
	}
	return DecodeTruth(data, s.fp, g)
}

// SaveTruth writes one query's truth snapshot.
func (s *Store) SaveTruth(st *truecard.Store) error {
	return s.write(truthFile(st.G.Q.ID), EncodeTruth(st, s.fp))
}

// Info describes one fingerprint directory for `jobench snapshot inspect`.
type Info struct {
	Fingerprint string
	Manifest    Manifest
	HasDatabase bool
	StatsFiles  int
	TruthFiles  int
	// IndexSets lists the cached physical designs by label ("pk", "pkfk",
	// ...), sorted.
	IndexSets []string
	Bytes     int64
}

// Inspect summarizes every snapshot under cacheDir. A missing cache
// directory is an empty cache, not an error.
func Inspect(cacheDir string) ([]Info, error) {
	entries, err := os.ReadDir(cacheDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Info
	for _, ent := range entries {
		if !ent.IsDir() || !looksLikeFingerprint(ent.Name()) {
			continue
		}
		info := Info{Fingerprint: ent.Name()}
		dir := filepath.Join(cacheDir, ent.Name())
		if data, err := os.ReadFile(filepath.Join(dir, manifestFile)); err == nil {
			_ = json.Unmarshal(data, &info.Manifest)
		}
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if fi, err := d.Info(); err == nil {
				info.Bytes += fi.Size()
			}
			switch {
			case d.Name() == dbFile:
				info.HasDatabase = true
			case strings.HasPrefix(d.Name(), "stats-"):
				info.StatsFiles++
			case strings.HasPrefix(d.Name(), "indexes-") && strings.HasSuffix(d.Name(), ".snap"):
				info.IndexSets = append(info.IndexSets,
					strings.TrimSuffix(strings.TrimPrefix(d.Name(), "indexes-"), ".snap"))
			case filepath.Base(filepath.Dir(path)) == truthDir:
				info.TruthFiles++
			}
			return nil
		})
		sort.Strings(info.IndexSets)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}

// Clear removes fingerprint directories under cacheDir and reports how
// many it removed. An empty workloadName removes every snapshot; a
// non-empty one removes only snapshots whose manifest names that workload.
// It deliberately touches only directories that look like fingerprints, so
// pointing it at the wrong directory cannot destroy unrelated files.
func Clear(cacheDir, workloadName string) (int, error) {
	entries, err := os.ReadDir(cacheDir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, ent := range entries {
		if !ent.IsDir() || !looksLikeFingerprint(ent.Name()) {
			continue
		}
		if workloadName != "" {
			var m Manifest
			data, err := os.ReadFile(filepath.Join(cacheDir, ent.Name(), manifestFile))
			if err != nil || json.Unmarshal(data, &m) != nil || m.Workload != workloadName {
				continue
			}
		}
		if err := os.RemoveAll(filepath.Join(cacheDir, ent.Name())); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// looksLikeFingerprint matches Key.Fingerprint's output: 16 hex digits.
func looksLikeFingerprint(name string) bool {
	if len(name) != 16 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
