module powercap/bench

go 1.22

require powercap v0.0.0

replace powercap => ../
