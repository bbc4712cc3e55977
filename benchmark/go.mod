module pequod/benchmark

go 1.24

require pequod v0.0.0

replace pequod => ../
