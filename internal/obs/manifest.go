package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchemaVersion identifies the manifest layout; bump it on
// incompatible changes so downstream consumers can dispatch.
const ManifestSchemaVersion = 1

// Artifact describes one regenerated paper artifact inside a manifest.
type Artifact struct {
	// ID is the experiment registry key ("table2", "fig9", ...).
	ID string `json:"id"`
	// Title is the human description of the artifact.
	Title string `json:"title"`
	// WallSeconds is the wall-clock cost of regenerating it (0 when the
	// artifact shared a batched campaign and was not individually timed).
	// An artifact regenerated alongside others (multiflow, with two or
	// more workers) reports its own elapsed time, overlapped with theirs.
	WallSeconds float64 `json:"wall_seconds"`
	// Files lists the exported file names, relative to the manifest.
	Files []string `json:"files,omitempty"`
}

// Manifest records how a results directory was produced: the exact
// options and salt, the producing tool and its version, and the
// wall-clock cost per artifact. It is written as manifest.json beside
// the exported results so a reproduction is auditable after the fact.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	CreatedAt     time.Time `json:"created_at"`
	// Tool is the producing command ("experiments").
	Tool string `json:"tool"`
	// Version is a git-describe-style build version (see BuildVersion).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// Args are the raw command-line arguments.
	Args []string `json:"args,omitempty"`
	// Options are the resolved campaign options (durations, trace
	// counts, interval width).
	Options map[string]any `json:"options,omitempty"`
	// Salt is the random salt perturbing every campaign stream.
	Salt uint64 `json:"salt"`
	// Artifacts lists every regenerated artifact.
	Artifacts []Artifact `json:"artifacts"`
	// WallSeconds is the total wall-clock cost of the invocation.
	WallSeconds float64 `json:"wall_seconds"`
	// MetricsFile points at the JSONL metric export, when one was
	// written.
	MetricsFile string `json:"metrics_file,omitempty"`
}

// NewManifest returns a manifest stamped with the current time and build
// identity.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		CreatedAt:     time.Now().UTC(),
		Tool:          tool,
		Version:       BuildVersion(),
		GoVersion:     runtime.Version(),
	}
}

// Write serializes the manifest as indented JSON to path.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateManifest checks data against the documented schema: the
// current schema version, a creation time, tool and version identity,
// and at least one artifact with a non-empty ID.
func ValidateManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		return nil, fmt.Errorf("manifest: schema_version = %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.CreatedAt.IsZero() {
		return nil, fmt.Errorf("manifest: missing created_at")
	}
	if m.Tool == "" || m.Version == "" || m.GoVersion == "" {
		return nil, fmt.Errorf("manifest: missing tool/version identity")
	}
	if len(m.Artifacts) == 0 {
		return nil, fmt.Errorf("manifest: no artifacts recorded")
	}
	for i, a := range m.Artifacts {
		if a.ID == "" {
			return nil, fmt.Errorf("manifest: artifact %d has empty id", i)
		}
	}
	return &m, nil
}

// BuildVersion returns a git-describe-style version for the running
// binary, derived from the VCS metadata the Go toolchain embeds:
// "devel+abc1234" (plus "-dirty" when the tree was modified), or
// "unknown" for builds without VCS stamping (e.g. go test binaries).
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	v := "devel+" + rev
	if modified == "true" {
		v += "-dirty"
	}
	return v
}
