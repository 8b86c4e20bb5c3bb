package storeutil

// StaleTempAge exposes the temp-sweep age gate to the external tests.
const StaleTempAge = staleTempAge
