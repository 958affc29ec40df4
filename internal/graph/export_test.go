package graph

// SizedGraph hands the decode sweep's shape generator to the differential
// tests in reference_test.go, which sit outside the package so that they
// can import internal/datasets.
var SizedGraph = sizedGraph
