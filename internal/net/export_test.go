package net

// SetMeshAcceptHook installs (nil removes) a hook that runs on the
// accepting side of every mesh connection between reading the dialer's
// hello and registering the dialer as a peer.
func SetMeshAcceptHook(hook func(proc int)) {
	if hook == nil {
		meshAcceptHook.Store(nil)
		return
	}
	meshAcceptHook.Store(&hook)
}
