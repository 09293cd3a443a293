// Persistent artifact store: the disk tier under the in-memory cache.
//
// Every cacheable artifact (CFG prototype, block-cost table, structural row
// template) can be spilled to a directory as a content-addressed file and
// restored lazily on the next process's first miss, so a restarted daemon
// re-prepares warm instead of rebuilding the world. The store trusts
// nothing it reads back: each entry is a versioned record carrying a
// SHA-256 checksum over its header and payload, written atomically via a
// temp file + rename. A record that is truncated, bit-flipped, version-
// skewed, or simply undecodable is detected, counted, deleted, and the
// artifact is rebuilt from source — a corrupt store can cost time, never
// soundness.
package prepcache

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Artifact kind names: the subdirectory each entry class lives in.
const (
	KindCFG  = "cfg"
	KindCost = "cost"
	KindRows = "rows"
	KindExe  = "exe"
)

// persistVersion is the on-disk format version. Bump it whenever a codec
// changes shape; old entries then read as version-skewed (counted under
// Corrupt) and are rebuilt rather than misdecoded.
const persistVersion = 1

// persistMagic opens every artifact file.
var persistMagic = [4]byte{'C', 'P', 'A', persistVersion}

// checksumLen is the trailing SHA-256 over magic+kind+payload.
const checksumLen = sha256.Size

// PersistHooks intercepts disk I/O for fault injection (the chaos
// harness) and tests. Both hooks may be nil.
type PersistHooks struct {
	// BeforeWrite runs before an artifact spill; a non-nil error fails the
	// write (counted under WriteErrors, never fatal to the caller).
	BeforeWrite func(kind string) error
	// AfterRead sees the raw file bytes before verification and may return
	// a mutated copy — the standard way to prove checksum verification
	// catches on-disk corruption.
	AfterRead func(kind string, raw []byte) []byte
}

// PersistStats is the disk tier's ledger.
type PersistStats struct {
	// Restored counts artifacts served from disk into memory; Spilled
	// counts artifacts written.
	Restored int64
	Spilled  int64
	// Corrupt counts entries rejected by verification or decoding —
	// truncation, checksum mismatch, version skew, undecodable payload.
	// Every one was deleted and its artifact rebuilt from source.
	Corrupt int64
	// WriteErrors counts failed spills (including injected ones). A failed
	// spill degrades persistence, not correctness.
	WriteErrors int64
	// Misses counts disk lookups that found no entry.
	Misses int64
}

// diskStore is one persistence directory. All methods are safe for
// concurrent use; writes are atomic (temp + rename) so readers never see
// a half-written entry.
type diskStore struct {
	dir string

	mu    sync.RWMutex
	hooks PersistHooks

	restored  atomic.Int64
	spilled   atomic.Int64
	corrupt   atomic.Int64
	writeErrs atomic.Int64
	misses    atomic.Int64
}

func newDiskStore(dir string) (*diskStore, error) {
	for _, kind := range []string{KindCFG, KindCost, KindRows, KindExe} {
		if err := os.MkdirAll(filepath.Join(dir, kind), 0o755); err != nil {
			return nil, err
		}
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) path(kind string, key Key) string {
	return filepath.Join(d.dir, kind, hex.EncodeToString(key[:]))
}

func (d *diskStore) getHooks() PersistHooks {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.hooks
}

// load returns the verified payload of an entry, or nil when the entry is
// absent or failed verification (the latter counted as corrupt and the
// file removed).
func (d *diskStore) load(kind string, key Key) []byte {
	path := d.path(kind, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil
	}
	if h := d.getHooks(); h.AfterRead != nil {
		raw = h.AfterRead(kind, raw)
	}
	if payload, ok := verifyRecord(kind, raw); ok {
		return payload
	}
	d.markCorrupt(kind, key)
	return nil
}

// markCorrupt counts and deletes a bad entry so the rebuilt artifact can
// be respilled cleanly.
func (d *diskStore) markCorrupt(kind string, key Key) {
	d.corrupt.Add(1)
	os.Remove(d.path(kind, key))
}

// verifyRecord checks the framing of one artifact file: magic, version,
// kind tag, and the trailing checksum over everything before it.
func verifyRecord(kind string, raw []byte) ([]byte, bool) {
	head := len(persistMagic) + 1
	if len(raw) < head+checksumLen {
		return nil, false
	}
	if [4]byte(raw[:4]) != persistMagic {
		return nil, false
	}
	if len(kind) == 0 || raw[4] != kind[0] {
		return nil, false
	}
	body, sum := raw[:len(raw)-checksumLen], raw[len(raw)-checksumLen:]
	want := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(want[:], sum) != 1 {
		return nil, false
	}
	return body[head:], true
}

// spill writes one artifact entry atomically. Failures are counted and
// swallowed: persistence is best-effort, the in-memory artifact is already
// serving the caller.
func (d *diskStore) spill(kind string, key Key, payload []byte) {
	if h := d.getHooks(); h.BeforeWrite != nil {
		if err := h.BeforeWrite(kind); err != nil {
			d.writeErrs.Add(1)
			return
		}
	}
	buf := make([]byte, 0, len(persistMagic)+1+len(payload)+checksumLen)
	buf = append(buf, persistMagic[:]...)
	buf = append(buf, kind[0])
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	dir := filepath.Join(d.dir, kind)
	tmp, err := os.CreateTemp(dir, "."+hex.EncodeToString(key[:8])+".tmp*")
	if err != nil {
		d.writeErrs.Add(1)
		return
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		d.writeErrs.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		d.writeErrs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), d.path(kind, key)); err != nil {
		os.Remove(tmp.Name())
		d.writeErrs.Add(1)
		return
	}
	d.spilled.Add(1)
}

func (d *diskStore) stats() PersistStats {
	return PersistStats{
		Restored:    d.restored.Load(),
		Spilled:     d.spilled.Load(),
		Corrupt:     d.corrupt.Load(),
		WriteErrors: d.writeErrs.Load(),
		Misses:      d.misses.Load(),
	}
}

// SetPersistDir attaches a persistence directory to the cache: artifacts
// built from now on are spilled there, and misses consult it before
// rebuilding. An empty dir detaches. Reset drops only the in-memory tier —
// the attached store survives, which is exactly a process restart from the
// store's point of view.
func (c *Cache) SetPersistDir(dir string) error {
	if dir == "" {
		c.pmu.Lock()
		c.disk = nil
		c.pmu.Unlock()
		return nil
	}
	d, err := newDiskStore(dir)
	if err != nil {
		return err
	}
	c.pmu.Lock()
	c.disk = d
	c.pmu.Unlock()
	return nil
}

// SetPersistHooks installs fault-injection hooks on the attached store.
// No-op when no store is attached.
func (c *Cache) SetPersistHooks(h PersistHooks) {
	if d := c.diskStore(); d != nil {
		d.mu.Lock()
		d.hooks = h
		d.mu.Unlock()
	}
}

// PersistStats returns the disk tier's ledger (zero when detached).
func (c *Cache) PersistStats() PersistStats {
	if d := c.diskStore(); d != nil {
		return d.stats()
	}
	return PersistStats{}
}

func (c *Cache) diskStore() *diskStore {
	c.pmu.RLock()
	defer c.pmu.RUnlock()
	return c.disk
}

// costDiskKey folds the march fingerprint into the body key, naming a
// cost-table entry on disk the way artKey names it in memory.
func costDiskKey(body Key, marchFP string) Key {
	h := sha256.New()
	h.Write(body[:])
	h.Write([]byte(marchFP))
	return Key(h.Sum(nil))
}
