module deferstm/benchmark

go 1.24

require deferstm v0.0.0

replace deferstm => ../
