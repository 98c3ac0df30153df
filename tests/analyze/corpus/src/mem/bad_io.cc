// Seeded violation: file I/O outside the trace/snapshot layers.
// fdp-analyze-expect: file-io

#include <fstream>

namespace fdp
{

void
dump(int value)
{
    std::ofstream out("debug.txt");
    out << value;
}

} // namespace fdp
