module ncs/benchmark

go 1.24

require ncs v0.0.0

replace ncs => ../
