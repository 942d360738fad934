module bismarck/benchmark

go 1.24

require bismarck v0.0.0

replace bismarck => ../
