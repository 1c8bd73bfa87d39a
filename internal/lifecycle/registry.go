package lifecycle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/colnet"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/made"
)

// Chaos fault points on the registry's persistence path. Disarmed they cost
// one atomic load each; the chaos harness (scripts/check.sh chaos) kills or
// faults the process at every one of them and asserts the registry heals.
var (
	siteManifestWrite = faultinject.Site("lifecycle.manifest.write")
	siteVersionWrite  = faultinject.Site("lifecycle.version.write")
	siteVersionLoad   = faultinject.Site("lifecycle.version.load")
)

// manifestMagic frames the registry manifest (8 bytes, like every other
// persisted artifact since the envelope layer landed).
const manifestMagic = "narumani"

const manifestVersion = 1

// manifestMaxSize bounds manifest reads so a corrupt length field cannot
// drive allocation.
const manifestMaxSize = 1 << 20

// maxVersions bounds how many versions a manifest may list; far above any
// real registry, low enough that hostile manifests cannot balloon memory.
const maxVersions = 4096

// manifestName is the manifest's file name inside the registry directory.
const manifestName = "MANIFEST"

// VersionMeta describes one immutable model version in the registry.
type VersionMeta struct {
	// ID is the version id, unique and strictly increasing within a registry.
	ID uint64 `json:"id"`
	// Arch names the model architecture ("made" or "colnet").
	Arch string `json:"arch"`
	// File is the model file's base name inside the registry directory.
	File string `json:"file"`
	// TrainRows is the row count of the table snapshot the version was
	// trained (or fine-tuned) on.
	TrainRows int64 `json:"train_rows"`
	// NLL is the version's mean negative log-likelihood in nats on its
	// training snapshot, for comparing versions at a glance.
	NLL float64 `json:"nll"`
	// CreatedUnix is the registration time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Recovered marks an entry reconstructed by crash recovery (manifest
	// rebuilt from version files); TrainRows and NLL are unknown (zero) for
	// such entries.
	Recovered bool `json:"recovered,omitempty"`
}

// manifest is the registry's persisted index.
type manifest struct {
	// Active is the id of the serving version (0 when the registry is empty).
	Active uint64 `json:"active"`
	// Versions lists every registered version in ascending id order.
	Versions []VersionMeta `json:"versions"`
}

// Registry is a durable store of immutable model versions: one file per
// model plus an envelope-framed manifest, both written atomically
// (write-temp + fsync + rename) so a crash can never leave a half-written
// version looking valid.
type Registry struct {
	dir      string
	mu       sync.Mutex
	man      manifest
	recovery RecoveryReport
}

// OpenRegistry opens (creating if needed) a registry directory, heals it, and
// loads its manifest. Healing is the crash-recovery pass in recover.go: stale
// temp files are swept, corrupt manifests and versions are quarantined (moved
// to quarantine/, never deleted), the manifest is rebuilt from surviving
// version files when necessary, and Active rolls back to the newest loadable
// version. The only unrecoverable state — version evidence exists but not one
// version loads — is a loud error, because serving would otherwise silently
// lose the model. Recovery() reports what healing did.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: opening registry: %w", err)
	}
	r := &Registry{dir: dir}
	r.mu.Lock()
	err := r.healLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// loadManifest decodes and validates an envelope-framed manifest. It must
// never panic and never accept a manifest that could make the registry load
// a wrong version (duplicate ids, out-of-tree file names, dangling Active),
// whatever bytes it is fed — FuzzLoadManifest holds it to that.
func loadManifest(data []byte) (*manifest, error) {
	ver, payload, err := envelope.Read(bytes.NewReader(data), manifestMagic, manifestMaxSize)
	if err != nil {
		return nil, err
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", envelope.ErrCorrupt, ver, manifestVersion)
	}
	var man manifest
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: manifest JSON: %v", envelope.ErrCorrupt, err)
	}
	if len(man.Versions) > maxVersions {
		return nil, fmt.Errorf("%w: manifest lists %d versions (max %d)", envelope.ErrCorrupt, len(man.Versions), maxVersions)
	}
	activeFound := man.Active == 0
	var prev uint64
	for i := range man.Versions {
		v := &man.Versions[i]
		if v.ID == 0 || v.ID <= prev {
			return nil, fmt.Errorf("%w: version ids not strictly increasing at entry %d", envelope.ErrCorrupt, i)
		}
		prev = v.ID
		if v.Arch != "made" && v.Arch != "colnet" {
			return nil, fmt.Errorf("%w: version %d: unknown architecture %q", envelope.ErrCorrupt, v.ID, v.Arch)
		}
		if !safeFileName(v.File) {
			return nil, fmt.Errorf("%w: version %d: unsafe file name %q", envelope.ErrCorrupt, v.ID, v.File)
		}
		if v.TrainRows < 0 {
			return nil, fmt.Errorf("%w: version %d: negative train rows", envelope.ErrCorrupt, v.ID)
		}
		if math.IsNaN(v.NLL) || math.IsInf(v.NLL, 0) {
			return nil, fmt.Errorf("%w: version %d: non-finite NLL", envelope.ErrCorrupt, v.ID)
		}
		if v.ID == man.Active {
			activeFound = true
		}
	}
	if !activeFound {
		return nil, fmt.Errorf("%w: active version %d not in manifest", envelope.ErrCorrupt, man.Active)
	}
	return &man, nil
}

// safeFileName accepts only base names the registry itself would generate:
// no separators, no traversal, nothing hidden.
func safeFileName(name string) bool {
	if name == "" || len(name) > 255 || name == manifestName {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return false
	}
	return filepath.Base(name) == name
}

// encodeManifest frames the manifest for disk.
func encodeManifest(man *manifest) ([]byte, error) {
	payload, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := envelope.Write(&buf, manifestMagic, manifestVersion, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Versions returns the registered versions, ascending by id.
func (r *Registry) Versions() []VersionMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]VersionMeta(nil), r.man.Versions...)
}

// Active returns the id of the registered serving version (0 when empty).
func (r *Registry) Active() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.Active
}

func (r *Registry) nextIDLocked() uint64 {
	if n := len(r.man.Versions); n > 0 {
		return r.man.Versions[n-1].ID + 1
	}
	return 1
}

// archOf names a model's architecture for the manifest, or errors for
// architectures without a persistence story (the transformer).
func archOf(m core.Trainable) (string, error) {
	switch m.(type) {
	case *made.Model:
		return "made", nil
	case *colnet.Model:
		return "colnet", nil
	}
	return "", fmt.Errorf("lifecycle: %T has no persisted form; registry requires a persistable architecture", m)
}

// Register persists a model as the next version and marks it active. The
// model file lands first, then the manifest — a crash between the two leaves
// an orphan file, never a manifest pointing at a missing or partial model.
func (r *Registry) Register(m core.Trainable, trainRows int64, nll float64) (VersionMeta, error) {
	arch, err := archOf(m)
	if err != nil {
		return VersionMeta{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	meta := VersionMeta{
		ID:          r.nextIDLocked(),
		Arch:        arch,
		TrainRows:   trainRows,
		NLL:         nll,
		CreatedUnix: time.Now().Unix(),
	}
	meta.File = fmt.Sprintf("v%08d.model", meta.ID)

	var body bytes.Buffer
	fmt.Fprintf(&body, "%s\n", arch)
	switch mm := m.(type) {
	case *made.Model:
		err = mm.Save(&body)
	case *colnet.Model:
		err = mm.Save(&body)
	}
	if err != nil {
		return VersionMeta{}, fmt.Errorf("lifecycle: serializing version %d: %w", meta.ID, err)
	}
	if err := atomicWrite(filepath.Join(r.dir, meta.File), body.Bytes(), siteVersionWrite); err != nil {
		return VersionMeta{}, err
	}

	man := manifest{Active: meta.ID, Versions: append(append([]VersionMeta(nil), r.man.Versions...), meta)}
	data, err := encodeManifest(&man)
	if err != nil {
		return VersionMeta{}, err
	}
	if err := atomicWrite(filepath.Join(r.dir, manifestName), data, siteManifestWrite); err != nil {
		// The version file published but the manifest did not: remove our own
		// unreferenced file so a retry (or the startup healer) does not find
		// an orphan. This is our write from seconds ago, not crash evidence.
		_ = os.Remove(filepath.Join(r.dir, meta.File))
		return VersionMeta{}, err
	}
	r.man = man
	return meta, nil
}

// LoadVersion reads one registered model back.
func (r *Registry) LoadVersion(id uint64) (core.Trainable, VersionMeta, error) {
	r.mu.Lock()
	var meta VersionMeta
	found := false
	for _, v := range r.man.Versions {
		if v.ID == id {
			meta, found = v, true
			break
		}
	}
	r.mu.Unlock()
	if !found {
		return nil, VersionMeta{}, fmt.Errorf("lifecycle: version %d not in registry", id)
	}
	// The fault point sits here, not in loadVersionFile: injected load faults
	// must exercise the caller-side retry/breaker machinery, while the
	// healer's loadability probe sees only genuine corruption (an injected
	// error there would quarantine a perfectly good version).
	if err := faultinject.Point(siteVersionLoad); err != nil {
		return nil, VersionMeta{}, fmt.Errorf("lifecycle: loading version %d: %w", id, err)
	}
	m, err := r.loadVersionFile(meta)
	if err != nil {
		return nil, VersionMeta{}, err
	}
	return m, meta, nil
}

// loadVersionFile reads one version's model file back, validating the arch
// header against the manifest entry. Shared by LoadVersion and the healer's
// newest-loadable probe.
func (r *Registry) loadVersionFile(meta VersionMeta) (core.Trainable, error) {
	f, err := os.Open(filepath.Join(r.dir, meta.File))
	if err != nil {
		return nil, fmt.Errorf("lifecycle: opening version %d: %w", meta.ID, err)
	}
	defer f.Close()
	// Buffered so the gob stream below sees exactly the bytes Save wrote.
	br := bufio.NewReader(f)
	arch, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("lifecycle: reading version %d header: %w", meta.ID, err)
	}
	arch = strings.TrimSuffix(arch, "\n")
	if arch != meta.Arch {
		return nil, fmt.Errorf("lifecycle: version %d: file architecture %q does not match manifest %q", meta.ID, arch, meta.Arch)
	}
	var m core.Trainable
	switch arch {
	case "made":
		m, err = made.Load(br)
	case "colnet":
		m, err = colnet.Load(br)
	default:
		err = fmt.Errorf("unknown architecture %q", arch)
	}
	if err != nil {
		return nil, fmt.Errorf("lifecycle: loading version %d: %w", meta.ID, err)
	}
	return m, nil
}

// LoadActive loads the registered serving version.
func (r *Registry) LoadActive() (core.Trainable, VersionMeta, error) {
	id := r.Active()
	if id == 0 {
		return nil, VersionMeta{}, fmt.Errorf("lifecycle: registry has no active version")
	}
	return r.LoadVersion(id)
}

// atomicWrite lands data at path via write-temp + fsync + rename + dir fsync,
// mirroring the checkpoint writer's durability discipline. site is the fault
// point consulted mid-write: an injected exit here leaves the temp file
// stranded (a crash between create and rename), an injected partial write
// leaves the destination untouched.
func atomicWrite(path string, data []byte, site string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("lifecycle: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	w, err := faultinject.WrapWriter(site, tmp)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("lifecycle: writing %s: %w", path, err)
	}
	if _, err := w.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("lifecycle: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("lifecycle: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("lifecycle: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("lifecycle: publishing %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
