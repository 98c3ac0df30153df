// Pairs src/core/bad_printf.cc so only the seeded orphan trips test-pairing.
