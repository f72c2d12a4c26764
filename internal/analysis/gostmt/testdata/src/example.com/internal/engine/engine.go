// Package engine stubs the one parallel primitive.
package engine

// ParallelTasks is the one function that may start goroutines.
func ParallelTasks(n, workers int, fn func(w, t int)) {
	for w := 0; w < workers; w++ {
		go fn(w, w)
	}
}

// Build starts a goroutine per table beside the primitive.
func Build(tables int, fn func(int)) {
	for t := 0; t < tables; t++ {
		go fn(t) // want `go statement outside engine.ParallelTasks`
	}
}

type pool struct{}

// ParallelTasks as a method is not the primitive.
func (pool) ParallelTasks() {
	go func() {}() // want `go statement outside engine.ParallelTasks`
}
