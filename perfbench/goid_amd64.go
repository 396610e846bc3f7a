package main

// getg returns the running goroutine's runtime handle. It is only
// compared for identity, never dereferenced.
func getg() uintptr

// goroutineKey identifies the calling goroutine in a few nanoseconds.
func goroutineKey() uintptr { return getg() }
