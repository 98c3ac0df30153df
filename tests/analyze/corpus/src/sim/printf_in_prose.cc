// Clean case: printf( and puts( in a comment, or inside a string
// literal, are prose and data, not calls; the paired test file exists.
// fdp-analyze-expect: clean

#include <ostream>

namespace fdp
{

void
explain(std::ostream &os)
{
    os << "reports go through inform(), never printf( or puts(\n";
}

} // namespace fdp
