// Pairs src/core/bad_core_id.cc so only the seeded orphan trips test-pairing.
