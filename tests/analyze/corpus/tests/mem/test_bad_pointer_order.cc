// Pairs src/mem/bad_pointer_order.cc so only the seeded orphan trips test-pairing.
