module patterndp/bench

go 1.24

require patterndp v0.0.0

replace patterndp => ../
