module panda/bench

go 1.24

require panda v0.0.0

replace panda => ../
