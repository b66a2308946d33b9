module plwg/benchmark

go 1.22

require plwg v0.0.0

replace plwg => ../
