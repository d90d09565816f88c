package sweep

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
	"runtime/debug"
	"strconv"
	"sync"

	"github.com/coyote-te/coyote/internal/exp"
)

// Fingerprint identifies the code that produced a cache entry. Results are
// pure functions of (unit, config, code), so the fingerprint is the cache
// key's third coordinate: rebuild the binary and previous entries simply
// stop matching instead of serving stale numbers. By default it is the
// SHA-256 of the running executable (stable within a build, changed by any
// recompile); the COYOTE_SWEEP_FINGERPRINT environment variable overrides
// it for workflows that pin cache validity to something coarser (a release
// tag, a CI cache epoch).
func Fingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprint = computeFingerprint()
	})
	return fingerprint
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

func computeFingerprint() string {
	if env := os.Getenv("COYOTE_SWEEP_FINGERPRINT"); env != "" {
		return env
	}
	if path, err := os.Executable(); err == nil {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "exe-" + hex.EncodeToString(h.Sum(nil))[:32]
			}
		}
	}
	// Last resort (e.g. the executable is unreadable): the module build
	// info, which still changes with the toolchain and dependency set.
	if bi, ok := debug.ReadBuildInfo(); ok {
		h := sha256.Sum256([]byte(bi.String()))
		return "buildinfo-" + hex.EncodeToString(h[:])[:32]
	}
	return "unknown"
}

// Key derives the unit's content-addressed cache key under cfg and a code
// fingerprint: the hex SHA-256 of a framed serialization of every input
// that can change the result — topology bytes, unit identity, demand
// model, the full configuration, and the fingerprint. Length prefixes
// frame each field, so no concatenation of distinct inputs can collide.
func (u Unit) Key(cfg exp.Config, fingerprint string) (string, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, field := range [][]byte{
		[]byte("coyote-sweep-key-v1"),
		[]byte(fingerprint),
		[]byte(u.ID),
		[]byte(u.Kind),
		[]byte(u.Exp),
		[]byte(u.Model),
		cfgJSON,
		u.Topo,
	} {
		io.WriteString(h, strconv.Itoa(len(field)))
		h.Write([]byte{'\n'})
		h.Write(field)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Entry is one cached unit result. Table is the deterministic payload;
// CreatedUnix and ElapsedMS are bookkeeping (cache-age reporting, the
// resume-time table in EXPERIMENTS.md) and never feed result comparison.
type Entry struct {
	Key         string     `json:"key"`
	Unit        string     `json:"unit"`
	Table       *exp.Table `json:"table"`
	CreatedUnix int64      `json:"created_unix"`
	ElapsedMS   int64      `json:"elapsed_ms"`
}

// Cache is a content-addressed result store: one JSON file per key under
// dir, fanned out over 256 two-hex-digit subdirectories. Writers are
// atomic (temp file + rename), so an interrupted campaign never leaves a
// half-written entry for resume to trip over, and concurrent shards may
// share a directory.
type Cache struct {
	dir string
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads the entry for key; the second return reports whether it
// existed. A malformed or mis-keyed entry is an error, not a miss — silent
// recomputation would mask cache corruption.
func (c *Cache) Get(key string) (*Entry, bool, error) {
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false, fmt.Errorf("sweep: corrupt cache entry %s: %w", c.path(key), err)
	}
	if e.Key != key {
		return nil, false, fmt.Errorf("sweep: cache entry %s claims key %s", c.path(key), e.Key)
	}
	if e.Table == nil {
		return nil, false, fmt.Errorf("sweep: cache entry %s has no table", c.path(key))
	}
	return &e, true, nil
}

// Has reports whether key is present without decoding it.
func (c *Cache) Has(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Put stores an entry atomically.
func (c *Cache) Put(e *Entry) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	path := c.path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
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
