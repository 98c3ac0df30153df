#include "harness/cli.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** "--insts N", or just "--quick" for a switch. */
std::string
spelling(const Flag &flag)
{
    return flag.metavar.empty() ? flag.name
                                : flag.name + " " + flag.metavar;
}

/** parseArgs(); with @p operands null, every argument is a flag. */
void
walk(int argc, char **argv, int first, const std::vector<Flag> &flags,
     const std::string &usage, std::vector<std::string> *operands)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (operands && arg.rfind("--", 0) != 0) {
            operands->push_back(arg);
            continue;
        }
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (flag == flags.end())
            fatal("unknown flag `%s'\n%s", arg.c_str(), usage.c_str());
        if (flag->metavar.empty())
            flag->set(nullptr);
        else if (i + 1 < argc)
            flag->set(argv[++i]);
        else
            fatal("%s requires a value (%s)\n%s", arg.c_str(),
                  flag->metavar.c_str(), usage.c_str());
    }
}

} // namespace

std::string
flagHelp(const std::string &program, const std::vector<Flag> &flags)
{
    std::size_t width = 0;
    for (const Flag &f : flags)
        width = std::max(width, spelling(f).size());
    std::ostringstream os;
    os << "usage: " << program << " [flags]\n";
    for (const Flag &f : flags) {
        const std::string s = spelling(f);
        os << "  " << s << std::string(width - s.size() + 2, ' ');
        for (const char c : f.help)
            os << c << (c == '\n' ? std::string(width + 4, ' ') : "");
        os << '\n';
    }
    return os.str();
}

void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags)
{
    const std::string path = argc > 0 ? argv[0] : "";
    walk(argc, argv, 1, flags,
         flagHelp(path.substr(path.rfind('/') + 1), flags), nullptr);
}

std::vector<std::string>
parseArgs(int argc, char **argv, int first, const std::vector<Flag> &flags,
          const std::string &usage)
{
    std::vector<std::string> operands;
    walk(argc, argv, first, flags, usage, &operands);
    return operands;
}

} // namespace fdp
