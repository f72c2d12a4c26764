// Package lib is outside internal/: the rule does not apply.
package lib

// Spawn starts a goroutine.
func Spawn(fn func()) { go fn() }
