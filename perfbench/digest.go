package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// digests.json holds the recorded output digests every run is checked
// against. Regenerate it with --record-digests only when a change is
// meant to alter the program's outputs.
//
//go:embed digests.json
var recordedJSON []byte

// digestSet is the recorded digests: the paper pipeline's outputs, the
// fleet and serving summaries of the reference-seed traces, and the
// daemon's response body per envelope.
type digestSet struct {
	Paper  string            `json:"paper"`
	Fleet  string            `json:"fleet"`
	Serve  string            `json:"serve"`
	Daemon map[string]string `json:"daemon"`
}

var recordedDigests = func() digestSet {
	var d digestSet
	if err := json.Unmarshal(recordedJSON, &d); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return d
}()

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// jsonDigest digests v's JSON encoding, which is deterministic for the
// program's summary types (struct fields in order, map keys sorted).
func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return bytesDigest(b), nil
}

func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: output digest %s, recorded %s", what, got, want)
	}
	return nil
}

// recordDigests recomputes every recorded digest from full-size inputs
// and writes the set to path.
func recordDigests(path string) error {
	var d digestSet
	var err error
	env := setupPaper(1, false)
	out, _, err := env.unit(nil, nil)
	if err != nil {
		return err
	}
	if err := out.check(); err != nil {
		return err
	}
	if d.Paper, err = jsonDigest(out); err != nil {
		return err
	}
	for _, sh := range []*simShape{&fleetShape, &serveShape} {
		w := newSimWorkload(*sh, options{})
		digest, err := w.referenceDigest()
		if err != nil {
			return fmt.Errorf("%s reference: %w", sh.name, err)
		}
		if sh.name == fleetShape.name {
			d.Fleet = digest
		} else {
			d.Serve = digest
		}
	}
	if d.Daemon, err = daemonDigests(); err != nil {
		return fmt.Errorf("daemon envelopes: %w", err)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
