module vstore/benchmark

go 1.22

require vstore v0.0.0

replace vstore => ../
