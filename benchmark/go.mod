module pvfsib/benchmark

go 1.22

require pvfsib v0.0.0

replace pvfsib => ../
