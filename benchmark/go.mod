module jobench/benchmark

go 1.24

require jobench v0.0.0

replace jobench => ../
