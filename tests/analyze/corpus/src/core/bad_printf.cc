// Seeded violation: a printf-family call outside the logging sinks.
// fdp-analyze-expect: logging-only

#include <cstdio>

namespace fdp
{

void
report(int value)
{
    std::printf("value=%d\n", value);
}

} // namespace fdp
