// Package bundle writes and validates post-mortem crash bundles: a
// self-contained directory of forensics artifacts (merged trace, metrics
// snapshot, stall report, recovery state, config) plus a MANIFEST.json
// that names, sizes, and checksums every file. The manifest makes a
// bundle shippable — a consumer can verify integrity before trusting the
// contents, and CI can assert a bundle is complete without knowing what
// the failing run looked like.
package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ManifestName is the fixed manifest filename inside a bundle directory.
const ManifestName = "MANIFEST.json"

// Schema identifies the manifest layout; bump on incompatible change.
const Schema = "slacksim-bundle/1"

// File is one artifact to include in a bundle.
type File struct {
	Name string
	Data []byte
}

// Meta describes the run that produced the bundle.
type Meta struct {
	// Reason is the failure that triggered the bundle ("stall: ...",
	// "sim error: ...", "worker 1 abandoned").
	Reason string `json:"reason"`
	// Session is the run's wire session id (empty for local drivers).
	Session string `json:"session,omitempty"`
	// Driver names the execution backend ("serial", "parallel", "sharded",
	// "remote").
	Driver string `json:"driver"`
	// Scheme is the synchronization scheme's display string.
	Scheme string `json:"scheme"`
}

// FileEntry is one artifact's manifest record.
type FileEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Manifest is the MANIFEST.json layout.
type Manifest struct {
	SchemaV   string      `json:"schema"`
	Reason    string      `json:"reason"`
	Session   string      `json:"session,omitempty"`
	Driver    string      `json:"driver"`
	Scheme    string      `json:"scheme"`
	CreatedNS int64       `json:"created_ns"`
	Files     []FileEntry `json:"files"`
}

// Write creates dir (and parents), writes every file into it, and
// finishes with the manifest. It returns the directory written. Files
// with nil Data are skipped, so callers can pass optional artifacts
// unconditionally.
func Write(dir string, meta Meta, files []File) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	man := Manifest{
		SchemaV:   Schema,
		Reason:    meta.Reason,
		Session:   meta.Session,
		Driver:    meta.Driver,
		Scheme:    meta.Scheme,
		CreatedNS: time.Now().UnixNano(),
	}
	for _, f := range files {
		if f.Data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return "", err
		}
		sum := sha256.Sum256(f.Data)
		man.Files = append(man.Files, FileEntry{
			Name:   f.Name,
			Size:   int64(len(f.Data)),
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	enc, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(enc, '\n'), 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// Validate reads dir's manifest and re-hashes every listed file,
// returning the manifest on success and a descriptive error on any
// missing file, size mismatch, or checksum mismatch.
func Validate(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", ManifestName, err)
	}
	if man.SchemaV != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", ManifestName, man.SchemaV, Schema)
	}
	for _, fe := range man.Files {
		data, err := os.ReadFile(filepath.Join(dir, fe.Name))
		if err != nil {
			return nil, fmt.Errorf("bundle file %s: %w", fe.Name, err)
		}
		if int64(len(data)) != fe.Size {
			return nil, fmt.Errorf("bundle file %s: size %d, manifest says %d", fe.Name, len(data), fe.Size)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != fe.SHA256 {
			return nil, fmt.Errorf("bundle file %s: sha256 mismatch", fe.Name)
		}
	}
	return &man, nil
}
