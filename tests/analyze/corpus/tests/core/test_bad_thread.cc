// Pairs src/core/bad_thread.cc so only the seeded orphan trips test-pairing.
