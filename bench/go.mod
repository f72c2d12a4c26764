module semblock/bench

go 1.22

require semblock v0.0.0

replace semblock => ..
