// Pairs src/mem/bad_io.cc so only the seeded orphan trips test-pairing.
