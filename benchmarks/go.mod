module oblivjoin/benchmarks

go 1.23

require oblivjoin v0.0.0

replace oblivjoin => ../
