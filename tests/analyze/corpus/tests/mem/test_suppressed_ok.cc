// Pairs src/mem/suppressed_ok.cc so only the seeded orphan trips test-pairing.
