// Seeded violation: a source file with no tests/sim/test_orphan.cc.
// fdp-analyze-expect: test-pairing

namespace fdp
{

int
orphan()
{
    return 1;
}

} // namespace fdp
