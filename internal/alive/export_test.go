package alive

// ResultsEqual exposes resultsEqual to the external tests of this package.
var ResultsEqual = resultsEqual
