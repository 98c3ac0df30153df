#include "analyze/findings.hh"

#include <algorithm>
#include <ostream>
#include <tuple>

namespace fdp::analyze
{

bool
findingLess(const Finding &a, const Finding &b)
{
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
}

namespace
{

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::string
toFindingsJson(const std::vector<Finding> &findings)
{
    std::vector<Finding> sorted = findings;
    std::sort(sorted.begin(), sorted.end(), findingLess);

    std::string out = "{\n  \"schema\": \"fdp-findings-v1\",\n"
                      "  \"findings\": [";
    bool first = true;
    for (const Finding &f : sorted) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"file\": ";
        appendJsonString(out, f.file);
        out += ", \"line\": " + std::to_string(f.line) + ", \"rule\": ";
        appendJsonString(out, f.rule);
        out += ", \"message\": ";
        appendJsonString(out, f.message);
        out += "}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
printFindings(std::ostream &os, const std::vector<Finding> &findings)
{
    std::vector<Finding> sorted = findings;
    std::sort(sorted.begin(), sorted.end(), findingLess);
    for (const Finding &f : sorted)
        os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
           << "\n";
}

} // namespace fdp::analyze
