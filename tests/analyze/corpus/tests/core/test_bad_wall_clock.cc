// Pairs src/core/bad_wall_clock.cc so only the seeded orphan trips test-pairing.
