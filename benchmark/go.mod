module zkvc/benchmark

go 1.24

require zkvc v0.0.0

replace zkvc => ../
