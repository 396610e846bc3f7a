//go:build !amd64

package main

import "runtime"

// goroutineKey identifies the calling goroutine by parsing its ID out
// of a stack header (slow, a few microseconds; amd64 reads it
// directly instead).
func goroutineKey() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
