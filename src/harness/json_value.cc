#include "harness/json_value.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

namespace fdp
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const JsonValue *found = nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            found = &v;  // last wins, matching common JSON semantics
    return found;
}

double
JsonValue::asNumber(double fallback) const
{
    return kind == Kind::Number ? number : fallback;
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return kind == Kind::String ? string : empty;
}

namespace
{

/** Deep recursion guard: our documents nest 3-4 levels; 64 is ample. */
constexpr int kMaxDepth = 64;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    int line = 1;
    std::string error;

    bool fail(const std::string &what)
    {
        if (error.empty())
            error = "line " + std::to_string(line) + ": " + what;
        return false;
    }

    void skipWs()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '\n')
                ++line;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos;
        }
    }

    bool literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += len;
        return true;
    }

    bool parseString(std::string *out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected '\"'");
        ++pos;
        out->clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\n')
                return fail("unterminated string");
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // The writers only escape control characters; encode
                // anything else as UTF-8 so round trips stay lossless.
                if (code < 0x80) {
                    out->push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out->push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue *out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a number");
        const std::string num = text.substr(start, pos - start);
        char *end = nullptr;
        out->kind = JsonValue::Kind::Number;
        out->number = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            return fail("malformed number '" + num + "'");
        return true;
    }

    bool parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        switch (c) {
          case '{': {
            ++pos;
            out->kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue member;
                if (!parseValue(&member, depth + 1))
                    return false;
                out->members.emplace_back(std::move(key),
                                          std::move(member));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated object");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++pos;
            out->kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                JsonValue item;
                if (!parseValue(&item, depth + 1))
                    return false;
                out->items.push_back(std::move(item));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated array");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            out->kind = JsonValue::Kind::String;
            return parseString(&out->string);
          case 't':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true", 4);
          case 'f':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false", 5);
          case 'n':
            out->kind = JsonValue::Kind::Null;
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    Parser p{text, 0, 1, {}};
    *out = JsonValue{};
    if (!p.parseValue(out, 0)) {
        *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        *error = "line " + std::to_string(p.line) +
                 ": trailing garbage after document";
        return false;
    }
    error->clear();
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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
                out += hex[(c >> 4) & 0xF];
                out += hex[c & 0xF];
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << value;
    return os.str();
}

} // namespace fdp
