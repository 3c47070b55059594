module mnn/benchmark

go 1.24

require mnn v0.0.0

replace mnn => ../
