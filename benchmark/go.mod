// The benchmark is a module of its own so that it builds from its own
// directory; the replace points at the repository it measures.
module ddstore/benchmark

go 1.22

require ddstore v0.0.0

replace ddstore => ../
