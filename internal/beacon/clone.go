package beacon

import "sciera/internal/addr"

// Clone returns a copy-on-write clone of the registry: both segment
// stores are cloned with pathdb.CloneShared, so the clone shares the
// original's immutable segments (and index containers) until either
// side mutates. With them goes what the registry's run kept (shared,
// read-only): a replica cloned from a converged reference serves the
// full control-plane view without beaconing, and its first refresh
// builds only what changed, as the reference's would.
//
// The clone's stores carry fresh identities, so its tokens never alias
// the original's: memoized combinations still valid on the original are
// carried over under the clone's own tokens (a replica cloned from a
// warmed reference resolves its pairs without combining once).
func (reg *Registry) Clone() *Registry {
	// Holding memoMu across the store clones keeps entries from being
	// replaced meanwhile, so an entry whose token still matches afterwards
	// was combined from exactly the state the clone shares.
	reg.memoMu.Lock()
	defer reg.memoMu.Unlock()
	c := &Registry{
		Core: reg.Core.CloneShared(),
		Down: reg.Down.CloneShared(),
		memo: make(map[[2]addr.IA]memoEntry, len(reg.memo)),
		kept: reg.kept,
	}
	for k, e := range reg.memo {
		if e.token == reg.Token(k[0]) {
			e.token = c.Token(k[0])
			c.memo[k] = e
		}
	}
	return c
}
