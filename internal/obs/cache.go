package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// RunCache is a content-addressed store of finished simulation runs.
// The address of a run is the SHA-256 of its full canonical
// configuration plus the code identity of the producing binary
// (Revision, which hashes the executable), so a repeated sweep
// resolves every already-computed cell to a disk read and any rebuild
// that changes the code invalidates the whole cache — no staleness
// heuristics, no manual flushing. Entries are one JSON file each,
// written atomically, so concurrent writers and a killed sweep both
// leave the cache consistent.
type RunCache struct {
	dir string
	rev string
}

// cacheEntry is the on-disk format of one cached run.
type cacheEntry struct {
	Schema   int       `json:"schema"`
	Revision string    `json:"revision"`
	Run      RunRecord `json:"run"`
}

// OpenRunCache opens (creating if needed) a run cache rooted at dir.
func OpenRunCache(dir string) (*RunCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: run cache: %w", err)
	}
	return &RunCache{dir: dir, rev: Revision()}, nil
}

// Key returns the content address of cfg under this binary: the
// hex SHA-256 of the canonical (JSON) configuration and the code
// identity.
// Every field of core.Config participates — two configs differing in
// any knob, including observation-only ones, are distinct entries.
func (c *RunCache) Key(cfg core.Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		// core.Config is a flat struct of scalars; Marshal cannot fail.
		panic(err)
	}
	h := sha256.New()
	h.Write(data)
	h.Write([]byte{0})
	h.Write([]byte(c.rev))
	return hex.EncodeToString(h.Sum(nil))
}

func (c *RunCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Load looks cfg up. A missing entry is (nil, false, nil); a present
// entry is decoded through RunRecord.Result, so every integrity check
// a manifest decode performs (counter/breakdown consistency, known
// miss classes) also gates a cache hit. A corrupt or mismatched entry
// is a loud error, not a silent miss — delete the cache directory to
// recover.
func (c *RunCache) Load(cfg core.Config) (*core.Result, bool, error) {
	key := c.Key(cfg)
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("obs: run cache: %w", err)
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, false, fmt.Errorf("obs: run cache: entry %s is malformed: %w", key, err)
	}
	if ent.Schema != SchemaVersion {
		// A schema change always changes the executable, hence the key;
		// a stale entry at this key is treated as a miss, recomputed and
		// overwritten.
		return nil, false, nil
	}
	if ent.Run.Config != cfg {
		return nil, false, fmt.Errorf("obs: run cache: entry %s was stored for a different config (hash collision or tampering)", key)
	}
	res, err := ent.Run.Result()
	if err != nil {
		return nil, false, fmt.Errorf("obs: run cache: entry %s: %w", key, err)
	}
	return res, true, nil
}

// Store writes a finished run into the cache, atomically (write to a
// temp file in the same directory, then rename), so readers never see
// a partial entry and the last of two concurrent writers of the same
// key wins with identical content.
func (c *RunCache) Store(res *core.Result) error {
	ent := cacheEntry{Schema: SchemaVersion, Revision: c.rev, Run: FromResult(res)}
	data, err := json.MarshalIndent(&ent, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: run cache: %w", err)
	}
	data = append(data, '\n')
	key := c.Key(res.Config)
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("obs: run cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: run cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: run cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: run cache: %w", err)
	}
	return nil
}

// Len reports how many entries the cache currently holds (any
// revision). It exists for tests and the -resume summary line.
func (c *RunCache) Len() (int, error) {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(names), nil
}
