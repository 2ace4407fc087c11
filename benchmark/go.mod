module mph/benchmark

go 1.22

require mph v0.0.0

replace mph => ../
