package beacon

// Clone returns a copy-on-write clone of the registry: both segment
// stores are cloned with pathdb.CloneShared, so the clone shares the
// original's immutable segments (and index containers) until either
// side mutates. With them goes what the registry's run kept (shared,
// read-only): a replica cloned from a converged reference serves the
// full control-plane view without beaconing, and its first refresh
// builds only what changed, as the reference's would.
//
// The clone's memo starts with the original's entries, as a refresh's
// does (carryMemo): the clone's stores carry fresh identities, so an
// entry is served once Lookup on the clone selects what it was combined
// from, re-stamped with the clone's token (a replica cloned from a
// warmed reference resolves its pairs without combining once).
func (reg *Registry) Clone() *Registry {
	c := &Registry{Core: reg.Core.CloneShared(), Down: reg.Down.CloneShared(), kept: reg.kept}
	c.carryMemo(reg)
	return c
}
