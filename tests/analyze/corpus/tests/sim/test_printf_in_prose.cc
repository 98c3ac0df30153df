// Pairs src/sim/printf_in_prose.cc so only the seeded orphan trips test-pairing.
