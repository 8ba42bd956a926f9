package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Load reads a scenario from JSON, fills defaults, resolves derived
// latencies, and validates it. Unknown fields are errors — a typoed
// knob must not silently become a default.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := Finish(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile loads and validates a scenario from a file on disk.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Finish normalizes and validates a programmatically constructed
// scenario in place — the same pipeline Load applies to JSON input.
func Finish(s *Scenario) error {
	if err := s.normalize(); err != nil {
		return err
	}
	return s.Validate()
}

// Canonical serializes the scenario as canonical JSON: fixed field
// order (struct order), two-space indentation, trailing newline. Two
// scenarios are identical iff their canonical bytes are — the
// generator's determinism contract and -scenario-dump both rest on it.
func (s *Scenario) Canonical() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Resolve turns a -scenario argument into a loaded, validated scenario.
// Three forms, tried in order: a builtin name ("sciera", "loadbench"), a
// generator spec ("gen:ases=210,isds=3,seed=1"), or a path to a
// scenario JSON file.
func Resolve(arg string) (*Scenario, error) {
	if arg == "" {
		arg = "sciera"
	}
	if s, ok := Builtin(arg); ok {
		return s, nil
	}
	if strings.HasPrefix(arg, "gen:") || arg == "gen" {
		spec, err := ParseGenName(arg)
		if err != nil {
			return nil, err
		}
		return Generate(spec)
	}
	if _, err := os.Stat(arg); err != nil {
		return nil, fmt.Errorf("scenario: %q is not a builtin (%s), a gen: spec, or a readable file",
			arg, strings.Join(BuiltinNames(), ", "))
	}
	return LoadFile(arg)
}

// RoundTrip proves a scenario survives serialization: its canonical
// dump reloads to the same canonical bytes. Used by tests and by
// scenario-check tooling.
func RoundTrip(s *Scenario) error {
	buf, err := s.Canonical()
	if err != nil {
		return err
	}
	s2, err := Load(bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("scenario %q: canonical dump does not reload: %w", s.Name, err)
	}
	buf2, err := s2.Canonical()
	if err != nil {
		return err
	}
	if !bytes.Equal(buf, buf2) {
		return fmt.Errorf("scenario %q: canonical serialization is not a fixed point", s.Name)
	}
	return nil
}
