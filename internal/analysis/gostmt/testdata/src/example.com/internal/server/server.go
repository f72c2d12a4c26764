// Package server fans work out per shard.
package server

import "example.com/internal/engine"

func work(int) {}

// Fanout starts a goroutine per shard.
func Fanout(shards int) {
	for i := 0; i < shards; i++ {
		go func() { work(i) }() // want `go statement outside engine.ParallelTasks`
	}
}

// Tasks is the conforming shape.
func Tasks(shards int) {
	engine.ParallelTasks(shards, shards, func(_, t int) { work(t) })
}

// Lifecycle goroutines are not batch work and say so.
func Lifecycle(stop <-chan struct{}) {
	//semblock:allow gostmt lifecycle: waits for shutdown
	go func() { <-stop }()
	go work(2) //semblock:allow gostmt lifecycle: one long-lived worker
}
