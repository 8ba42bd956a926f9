// Package scenarios holds the committed scenario files. sciera.json is
// the SCIERA deployment itself — the one copy there is: the builtin
// "sciera" is this file decoded by scenario.Load, so a consumer that
// names the builtin and one that loads the file see the same document.
// docs/scenarios.md says where its numbers come from.
package scenarios

import _ "embed"

// Sciera is scenarios/sciera.json; a string, so no caller can edit the
// builtin in place.
//
//go:embed sciera.json
var Sciera string
