// Pairs src/mem/bad_unordered_iter.cc so only the seeded orphan trips test-pairing.
