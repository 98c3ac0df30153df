// Pairs src/core/bad_rng.cc so only the seeded orphan trips test-pairing.
