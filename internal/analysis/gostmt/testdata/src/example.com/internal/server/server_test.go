package server

// Tests may start goroutines.
func concurrent() { go work(3) }
