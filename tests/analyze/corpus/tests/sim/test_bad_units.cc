// Pairs src/sim/bad_units.cc so only the seeded orphan trips test-pairing.
