// Pairs src/mem/bad_suppression.cc so only the seeded orphan trips test-pairing.
