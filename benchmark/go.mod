module entmatcher/benchmark

go 1.22

require entmatcher v0.0.0

replace entmatcher => ../
