module esr/benchmark

go 1.24

require esr v0.0.0

replace esr => ../
