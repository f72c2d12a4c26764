package obs

import "sync/atomic"

// Counter is a monotonic event counter. A nil *Counter is a valid no-op
// receiver — layers below the server (internal/stream) add to whatever
// counter they were handed without caring whether metrics are configured.
type Counter struct{ v atomic.Int64 }

// Add adds n. Nil receiver no-ops.
//
//semblock:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
