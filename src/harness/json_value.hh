/**
 * @file
 * Minimal JSON document model and recursive-descent parser for the
 * harness' own artifacts: fdp-results-v1 files (ResultsJson) and
 * fdp-store-v1 result-store entries, plus the string escaper and number
 * formatter every writer of those files shares.
 *
 * This is a reader for machine-written JSON, not a general-purpose
 * library: it accepts the full JSON grammar but keeps the model to the
 * five shapes those files use (object, array, string, number, bool;
 * null parses to a distinct kind). Numbers are stored as doubles
 * printed with max_digits10 by the writers, so parsing recovers the
 * exact bit pattern. Parse failures never crash or exit: parse()
 * returns false with a line-numbered message, because a truncated
 * store entry must read as "absent", not take the sweep down.
 */

#ifndef FDP_HARNESS_JSON_VALUE_HH
#define FDP_HARNESS_JSON_VALUE_HH

#include <string>
#include <utility>
#include <vector>

namespace fdp
{

/** One parsed JSON value (a tree; children owned by the parent). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> items;  ///< Array elements, in order.
    /** Object members in insertion order (files are machine-written,
     *  so duplicate keys do not occur; the last one wins if they do). */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Object member by key, or nullptr (also when not an object). */
    const JsonValue *find(const std::string &key) const;

    /** @{ Typed accessors: the value if it has that kind, else the
     *  fallback. Callers validate kinds explicitly where it matters. */
    double asNumber(double fallback = 0.0) const;
    const std::string &asString() const;  ///< "" when not a string
    /** @} */
};

/**
 * Parse @p text as one JSON document. Returns true and fills @p out on
 * success; returns false and fills @p error (with a 1-based line
 * number) on any syntax error, trailing garbage, or input deeper than
 * an internal nesting limit.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *error);

/** @p s escaped for the inside of a JSON string literal: quotes,
 *  backslashes, and every control character. */
std::string jsonEscape(const std::string &s);

/** @p value printed with max_digits10, so parseJson() recovers it
 *  exactly. */
std::string jsonNumber(double value);

} // namespace fdp

#endif // FDP_HARNESS_JSON_VALUE_HH
