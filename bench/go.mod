module nmsl/bench

go 1.22

require nmsl v0.0.0

replace nmsl => ../
