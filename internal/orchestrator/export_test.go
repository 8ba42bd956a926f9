package orchestrator

// Loop is loop, for tests that drive one without a network around it.
var Loop = (*Orchestrator).loop

// Timers returns how many loop timers o holds.
func Timers(o *Orchestrator) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.timers)
}
