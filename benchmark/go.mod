module patchindex/benchmark

go 1.22

require patchindex v0.0.0

replace patchindex => ../
