// Pairs src/mem/bad_new.cc so only the seeded orphan trips test-pairing.
