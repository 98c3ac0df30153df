// Seeded violation: spawning threads outside the sweep runner, with the
// declaration split across lines to defeat line-based matching.
// fdp-analyze-expect: pool-only-threading

#include <thread>

namespace fdp
{

void
spawn()
{
    std::
        thread worker([] {});
    worker.join();
}

} // namespace fdp
