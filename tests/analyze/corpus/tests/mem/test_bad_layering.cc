// Pairs src/mem/bad_layering.cc so only the seeded orphan trips test-pairing.
