#include "analyze/checks.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "analyze/include_graph.hh"
#include "analyze/suppress.hh"

namespace fdp::analyze
{

namespace
{

// ---------------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool
is(const Tokens &t, std::size_t i, std::string_view text)
{
    // Never match inside string/char literals: `"new"` is data, not code.
    return i < t.size() && t[i].kind != Tok::Str && t[i].kind != Tok::Chr &&
           t[i].text == text;
}

bool
isIdent(const Tokens &t, std::size_t i)
{
    return i < t.size() && t[i].kind == Tok::Ident;
}

/** Index just past the '>' matching the '<' at `i`, or npos. */
std::size_t
skipTemplateArgs(const Tokens &t, std::size_t i)
{
    if (!is(t, i, "<"))
        return i;
    int depth = 0;
    for (std::size_t k = i; k < t.size(); ++k) {
        const std::string &x = t[k].text;
        if (x == "<")
            ++depth;
        else if (x == ">")
            --depth;
        else if (x == ">>")
            depth -= 2;
        else if (x == ";")
            return std::string::npos;  // not a template after all
        if (depth <= 0)
            return k + 1;
    }
    return std::string::npos;
}

bool
isArithOp(const std::string &x)
{
    return x == "+" || x == "-" || x == "*" || x == "/" || x == "%";
}

/** Lower-cased identifier with trailing underscores stripped. */
std::string
canonIdent(const std::string &text)
{
    std::string s;
    for (char c : text)
        s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    while (!s.empty() && s.back() == '_')
        s.pop_back();
    return s;
}

bool
endsWith(const std::string &s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Determinism checks.
// ---------------------------------------------------------------------------

const std::set<std::string> &
unorderedContainers()
{
    static const std::set<std::string> names = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return names;
}

/** Names declared in this file with a std::unordered_* type. */
std::set<std::string>
collectUnorderedNames(const Tokens &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!is(t, i, "std") || !is(t, i + 1, "::") || !isIdent(t, i + 2) ||
            !unorderedContainers().count(t[i + 2].text))
            continue;
        std::size_t k = i + 3;
        if (is(t, k, "<"))
            k = skipTemplateArgs(t, k);
        if (k == std::string::npos)
            continue;
        while (k < t.size() &&
               (t[k].text == "&" || t[k].text == "*" || t[k].text == "const"))
            ++k;
        if (isIdent(t, k))
            names.insert(t[k].text);
    }
    return names;
}

void
checkUnorderedIter(const SourceFile &f, std::vector<Finding> *findings)
{
    const Tokens &t = f.lx.tokens;
    std::set<std::string> names = collectUnorderedNames(t);

    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        // Declaring one is fine; *iterating* one is the finding.
        if (is(t, i, "for") && is(t, i + 1, "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t k = i + 1; k < t.size(); ++k) {
                const std::string &x = t[k].text;
                if (x == "(")
                    ++depth;
                else if (x == ")" && --depth == 0) {
                    close = k;
                    break;
                } else if (x == ":" && depth == 1 && !colon)
                    colon = k;
            }
            if (!colon || !close)
                continue;
            for (std::size_t k = colon + 1; k < close; ++k) {
                if (isIdent(t, k) && names.count(t[k].text)) {
                    findings->push_back(
                        {f.relPath, t[i].line, "unordered-iter",
                         "range-for over std::unordered_* container `" +
                             t[k].text + "': iteration order is "
                             "unspecified and breaks bit-identical runs "
                             "(use an ordered container or sort first)"});
                    break;
                }
            }
        }
        if (isIdent(t, i) && names.count(t[i].text) &&
            (is(t, i + 1, ".") || is(t, i + 1, "->")) && i + 3 < t.size()) {
            const std::string &m = t[i + 2].text;
            if ((m == "begin" || m == "cbegin" || m == "rbegin" ||
                 m == "crbegin") &&
                is(t, i + 3, "(")) {
                findings->push_back(
                    {f.relPath, t[i].line, "unordered-iter",
                     "iterator walk of std::unordered_* container `" +
                         t[i].text + "': iteration order is unspecified "
                         "and breaks bit-identical runs"});
            }
        }
    }
}

void
checkPointerOrder(const SourceFile &f, std::vector<Finding> *findings)
{
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> ordered = {"map", "set", "multimap",
                                                  "multiset"};
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (is(t, i, "std") && is(t, i + 1, "::") && isIdent(t, i + 2) &&
            ordered.count(t[i + 2].text) && is(t, i + 3, "<")) {
            // A '*' anywhere in the first template argument means the
            // ordering key is a pointer value, which varies run to run.
            int depth = 0;
            for (std::size_t k = i + 3; k < t.size(); ++k) {
                const std::string &x = t[k].text;
                if (x == "<")
                    ++depth;
                else if (x == ">" || x == ">>")
                    depth -= x == ">>" ? 2 : 1;
                else if (x == ";")
                    break;
                else if (x == "," && depth == 1)
                    break;
                else if (x == "*") {
                    findings->push_back(
                        {f.relPath, t[k].line, "pointer-order",
                         "pointer-keyed std::" + t[i + 2].text +
                             ": ordering by pointer value differs run to "
                             "run; key by a stable id instead"});
                    break;
                }
                if (depth <= 0)
                    break;
            }
        }
        if (is(t, i, "std") && is(t, i + 1, "::") && is(t, i + 2, "less") &&
            is(t, i + 3, "<")) {
            std::size_t end = skipTemplateArgs(t, i + 3);
            for (std::size_t k = i + 3;
                 end != std::string::npos && k < end; ++k) {
                if (t[k].text == "*") {
                    findings->push_back(
                        {f.relPath, t[k].line, "pointer-order",
                         "std::less over a pointer type: pointer order "
                         "differs run to run"});
                    break;
                }
            }
        }
        if (is(t, i, "reinterpret_cast") && is(t, i + 1, "<")) {
            std::size_t end = skipTemplateArgs(t, i + 1);
            for (std::size_t k = i + 1;
                 end != std::string::npos && k < end; ++k) {
                if (isIdent(t, k) && endsWith(t[k].text, "intptr_t")) {
                    findings->push_back(
                        {f.relPath, t[k].line, "pointer-order",
                         "pointer value converted to an integer: using it "
                         "as a key, seed, or sort input differs run to "
                         "run"});
                    break;
                }
            }
        }
    }
}

/** Shared prev-token logic: is t[i] a plain or std:: qualified call? */
bool
calledBare(const Tokens &t, std::size_t i)
{
    if (i == 0)
        return true;
    const std::string &prev = t[i - 1].text;
    if (prev == "." || prev == "->")
        return false;  // member function of some object: not the libc one
    if (prev == "::")
        return i >= 2 && is(t, i - 2, "std");
    return true;
}

void
checkRngOnly(const SourceFile &f, std::vector<Finding> *findings)
{
    if (f.relPath == "src/sim/rng.hh")
        return;
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> engines = {
        "mt19937",       "mt19937_64",       "minstd_rand",
        "minstd_rand0",  "random_device",    "default_random_engine",
        "knuth_b",       "ranlux24",         "ranlux48"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (is(t, i, "std") && is(t, i + 1, "::") && isIdent(t, i + 2) &&
            engines.count(t[i + 2].text)) {
            findings->push_back({f.relPath, t[i + 2].line, "rng-only",
                                 "randomness source std::" + t[i + 2].text +
                                     " outside fdp::Rng (use sim/rng.hh so "
                                     "every seed is controlled)"});
        }
        if (isIdent(t, i) &&
            (t[i].text == "rand" || t[i].text == "srand") &&
            is(t, i + 1, "(") && calledBare(t, i)) {
            findings->push_back({f.relPath, t[i].line, "rng-only",
                                 t[i].text + "() outside fdp::Rng (use "
                                 "sim/rng.hh so every seed is controlled)"});
        }
    }
}

void
checkWallClock(const SourceFile &f, std::vector<Finding> *findings)
{
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> clocks = {
        "steady_clock", "system_clock", "high_resolution_clock"};
    static const std::set<std::string> cApis = {
        "time", "clock", "gettimeofday", "clock_gettime", "timespec_get"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (is(t, i, "chrono") && is(t, i + 1, "::") && isIdent(t, i + 2) &&
            clocks.count(t[i + 2].text)) {
            findings->push_back(
                {f.relPath, t[i + 2].line, "wall-clock",
                 "wall-clock source std::chrono::" + t[i + 2].text +
                     ": simulated behavior must never depend on host "
                     "time (suppress if only reporting throughput)"});
        }
        if (isIdent(t, i) && cApis.count(t[i].text) && is(t, i + 1, "(") &&
            calledBare(t, i)) {
            findings->push_back(
                {f.relPath, t[i].line, "wall-clock",
                 t[i].text + "(): simulated behavior must never depend "
                 "on host time (suppress if only reporting throughput)"});
        }
    }
}

// ---------------------------------------------------------------------------
// Audit coverage.
// ---------------------------------------------------------------------------

struct ClassDecl
{
    std::string name;
    std::vector<std::string> bases;
    bool isClass = false;  ///< `class` keyword (structs are data records)
    int line = 0;
    std::size_t bodyBegin = 0, bodyEnd = 0;  ///< token indices of { }
    bool hasBody = false;
};

std::vector<ClassDecl>
collectClasses(const SourceFile &f)
{
    const Tokens &t = f.lx.tokens;
    std::vector<ClassDecl> out;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isIdent(t, i) || (t[i].text != "class" && t[i].text != "struct"))
            continue;
        if (i > 0 && is(t, i - 1, "enum"))
            continue;
        if (!isIdent(t, i + 1))
            continue;
        std::size_t j = i + 1;
        // `template <class T>` / `<class T, ...>`: a type parameter,
        // not a declaration.
        if (is(t, j + 1, ">") || is(t, j + 1, ",") || is(t, j + 1, "=") ||
            is(t, j + 1, ">>"))
            continue;
        ClassDecl decl;
        decl.name = t[j].text;
        decl.isClass = t[i].text == "class";
        decl.line = t[i].line;
        ++j;
        if (is(t, j, "final"))
            ++j;
        if (is(t, j, ";"))
            continue;  // forward declaration
        if (is(t, j, ":")) {
            ++j;
            // Base-specifier list: remember the terminal identifier of
            // each qualified base name.
            std::string last;
            while (j < t.size() && !is(t, j, "{") && !is(t, j, ";")) {
                const std::string &x = t[j].text;
                if (x == "<") {
                    j = skipTemplateArgs(t, j);
                    if (j == std::string::npos)
                        break;
                    continue;
                }
                if (x == ",") {
                    if (!last.empty())
                        decl.bases.push_back(last);
                    last.clear();
                } else if (t[j].kind == Tok::Ident && x != "public" &&
                           x != "protected" && x != "private" &&
                           x != "virtual") {
                    last = x;
                }
                ++j;
            }
            if (!last.empty())
                decl.bases.push_back(last);
        }
        if (j == std::string::npos || !is(t, j, "{"))
            continue;
        decl.hasBody = true;
        decl.bodyBegin = j;
        int depth = 0;
        for (std::size_t k = j; k < t.size(); ++k) {
            if (t[k].text == "{")
                ++depth;
            else if (t[k].text == "}" && --depth == 0) {
                decl.bodyEnd = k;
                break;
            }
        }
        if (decl.bodyEnd)
            out.push_back(std::move(decl));
    }
    return out;
}

const std::set<std::string> &
statefulContainers()
{
    static const std::set<std::string> names = {
        "vector", "deque",          "list",          "map",
        "set",    "multimap",       "multiset",      "unordered_map",
        "unordered_set", "unordered_multimap", "unordered_multiset",
        "array",  "stack",          "queue",         "priority_queue",
        "bitset"};
    return names;
}

/** Does one member-declaration token run hold container/counter state? */
bool
runIsStateful(const std::vector<const Token *> &run)
{
    if (run.empty())
        return false;
    static const std::set<std::string> skipLead = {
        "using", "typedef", "friend",  "static", "enum",
        "class", "struct",  "template", "union",  "public",
        "private", "protected", "operator"};
    if (skipLead.count(run.front()->text))
        return false;
    int angle = 0;
    for (std::size_t k = 0; k < run.size(); ++k) {
        const std::string &x = run[k]->text;
        if (x == "(")
            return false;  // function declaration
        if (x == "<")
            ++angle;
        else if (x == ">")
            --angle;
        else if (x == ">>")
            angle -= 2;
        // Top-level const => immutable member, set once at construction.
        if (x == "const" && angle <= 0)
            return false;
    }
    for (std::size_t k = 0; k < run.size(); ++k) {
        const std::string &x = run[k]->text;
        if (x == "Counter" || x == "ScalarStat" || x == "DistributionStat")
            return true;
        if (k + 2 < run.size() && x == "std" && run[k + 1]->text == "::" &&
            statefulContainers().count(run[k + 2]->text))
            return true;
    }
    return false;
}

/**
 * The declared name of a member run: the last identifier before any
 * `=` initializer (for `std::vector<Run> rows_;` that is `rows_`, not
 * `std`). Falls back to the run's first token.
 */
const Token *
memberName(const std::vector<const Token *> &run)
{
    std::size_t end = run.size();
    int angle = 0;
    for (std::size_t k = 0; k < run.size(); ++k) {
        const std::string &x = run[k]->text;
        if (x == "<")
            ++angle;
        else if (x == ">")
            --angle;
        else if (x == ">>")
            angle -= 2;
        else if (x == "=" && angle <= 0) {
            end = k;
            break;
        }
    }
    for (std::size_t k = end; k-- > 0;)
        if (run[k]->kind == Tok::Ident)
            return run[k];
    return run.front();
}

/** Name token of the first stateful member run of a class body. */
const Token *
findStatefulMember(const Tokens &t, const ClassDecl &decl)
{
    std::vector<const Token *> run;
    for (std::size_t k = decl.bodyBegin + 1; k < decl.bodyEnd; ++k) {
        const std::string &x = t[k].text;
        if (x == "{") {
            // A brace group: a method body if the run has a '(',
            // otherwise a brace initializer. Skip it either way; a
            // method body also terminates the run.
            bool isFunction = false;
            for (const Token *r : run)
                if (r->text == "(") {
                    isFunction = true;
                    break;
                }
            int depth = 0;
            while (k < decl.bodyEnd) {
                if (t[k].text == "{")
                    ++depth;
                else if (t[k].text == "}" && --depth == 0)
                    break;
                ++k;
            }
            if (isFunction)
                run.clear();
            continue;
        }
        if (x == ";") {
            if (runIsStateful(run))
                return memberName(run);
            run.clear();
            continue;
        }
        if (x == ":" && run.size() == 1 &&
            (run[0]->text == "public" || run[0]->text == "private" ||
             run[0]->text == "protected")) {
            run.clear();
            continue;
        }
        run.push_back(&t[k]);
    }
    return nullptr;
}

void
collectClassHierarchy(const SourceTree &tree,
                      std::map<std::string, std::vector<std::string>> *bases)
{
    for (const SourceFile &f : tree.files)
        for (const ClassDecl &d : collectClasses(f))
            for (const std::string &b : d.bases)
                (*bases)[d.name].push_back(b);
}

bool
derivesFrom(const std::string &name, const std::string &target,
            const std::map<std::string, std::vector<std::string>> &bases,
            std::set<std::string> *visiting)
{
    if (name == target)
        return true;
    if (!visiting->insert(name).second)
        return false;  // inheritance cycle: corrupt input, stay safe
    auto it = bases.find(name);
    if (it == bases.end())
        return false;
    for (const std::string &b : it->second)
        if (derivesFrom(b, target, bases, visiting))
            return true;
    return false;
}

bool
inAuditScope(const std::string &relPath)
{
    static const char *scope[] = {"src/mem", "src/sim", "src/core", "src/mc",
                                  "src/prefetch"};
    for (const char *dir : scope)
        if (pathUnder(relPath, dir))
            return true;
    return false;
}

void
checkAuditCoverage(const SourceFile &f,
                   const std::map<std::string, std::vector<std::string>> &bases,
                   std::vector<Finding> *findings)
{
    if (!inAuditScope(f.relPath))
        return;
    for (const ClassDecl &d : collectClasses(f)) {
        if (!d.isClass || !d.hasBody)
            continue;  // structs are passive records audited by owners
        std::set<std::string> visiting;
        if (derivesFrom(d.name, "Auditable", bases, &visiting))
            continue;
        const Token *member = findStatefulMember(f.lx.tokens, d);
        if (!member)
            continue;
        findings->push_back(
            {f.relPath, d.line, "audit-coverage",
             "class `" + d.name + "' holds mutable container/counter "
             "state (`" + member->text + "' member, line " +
                 std::to_string(member->line) + ") but does not derive "
                 "fdp::Auditable; implement audit() or add "
                 "// fdp-analyze: suppress(audit-coverage, reason)"});
    }
}

/**
 * Snapshot coverage rides the same hierarchy walk: a class important
 * enough to audit holds checkpointable state, so it must also be
 * capturable by fdpsnap-v1 machine snapshots. Genuinely transient
 * state earns a reasoned suppression instead.
 */
void
checkSnapshotCoverage(
    const SourceFile &f,
    const std::map<std::string, std::vector<std::string>> &bases,
    std::vector<Finding> *findings)
{
    if (!inAuditScope(f.relPath))
        return;
    for (const ClassDecl &d : collectClasses(f)) {
        if (!d.isClass || !d.hasBody)
            continue;
        if (d.name == "Auditable" || d.name == "Snapshottable")
            continue;  // the interfaces themselves
        std::set<std::string> visiting;
        if (!derivesFrom(d.name, "Auditable", bases, &visiting))
            continue;
        visiting.clear();
        if (derivesFrom(d.name, "Snapshottable", bases, &visiting))
            continue;
        findings->push_back(
            {f.relPath, d.line, "snapshot-coverage",
             "class `" + d.name + "' derives fdp::Auditable (it holds "
             "simulation state worth checking) but not fdp::Snapshottable, "
             "so fdpsnap-v1 machine snapshots cannot capture it; implement "
             "saveState()/loadState() or add "
             "// fdp-analyze: suppress(snapshot-coverage, reason)"});
    }
}

// ---------------------------------------------------------------------------
// Typed units.
// ---------------------------------------------------------------------------

bool
isCoreName(const std::string &text)
{
    std::string s;
    for (char c : text)
        if (c != '_')
            s += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return s == "core" || s.rfind("coreid", 0) == 0 ||
           s.rfind("coreindex", 0) == 0;
}

void
checkTypedCoreId(const SourceFile &f, std::vector<Finding> *findings)
{
    if (pathUnder(f.relPath, "src/mc") || f.relPath == "src/sim/types.hh")
        return;
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> intTypes = {
        "int",      "unsigned", "short",    "long",     "size_t",
        "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
        "uint16_t", "uint32_t", "uint64_t"};
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        if (isIdent(t, i) && isCoreName(t[i].text) &&
            isIdent(t, i - 1) && intTypes.count(t[i - 1].text)) {
            const std::string &next = t[i + 1].text;
            if (next == ";" || next == "=" || next == "," || next == ")" ||
                next == "{") {
                findings->push_back(
                    {f.relPath, t[i].line, "typed-core-id",
                     "core id `" + t[i].text + "' declared as raw `" +
                         t[i - 1].text + "': use fdp::CoreId "
                         "(sim/types.hh) outside src/mc/"});
            }
        }
        if (is(t, i, ".") && is(t, i + 1, "index") && is(t, i + 2, "(") &&
            is(t, i + 3, ")")) {
            const bool before = isArithOp(t[i - 1].text);
            const bool after = i + 4 < t.size() && isArithOp(t[i + 4].text);
            if (before || after)
                findings->push_back(
                    {f.relPath, t[i].line, "typed-core-id",
                     "arithmetic on CoreId::index() outside src/mc/ "
                     "(subscripting and comparison stay legal)"});
        }
    }
}

/** Unit suffix of an identifier: "cycle", "inst", "byte", or "". */
std::string
unitOf(const std::string &text)
{
    std::string s = canonIdent(text);
    if (endsWith(s, "cycles") || endsWith(s, "cycle"))
        return "cycle";
    if (endsWith(s, "insts") || endsWith(s, "inst"))
        return "inst";
    if (endsWith(s, "bytes") || endsWith(s, "byte"))
        return "byte";
    return "";
}

void
checkUnitMixing(const SourceFile &f, std::vector<Finding> *findings)
{
    const Tokens &t = f.lx.tokens;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        const std::string &op = t[i].text;
        if (op != "+" && op != "-" && op != "+=" && op != "-=")
            continue;
        // Left operand: the identifier just before, or the callee of a
        // call just before (`transferCycles() + x`).
        std::size_t li = i - 1;
        if (is(t, li, ")")) {
            int depth = 0;
            while (li > 0) {
                if (t[li].text == ")")
                    ++depth;
                else if (t[li].text == "(" && --depth == 0)
                    break;
                --li;
            }
            if (li == 0)
                continue;
            --li;
        }
        if (!isIdent(t, li))
            continue;
        // Right operand: follow a.b->c chains to the terminal name.
        std::size_t ri = i + 1;
        if (!isIdent(t, ri))
            continue;
        while (ri + 2 < t.size() &&
               (t[ri + 1].text == "." || t[ri + 1].text == "->" ||
                t[ri + 1].text == "::") &&
               isIdent(t, ri + 2))
            ri += 2;
        const std::string lu = unitOf(t[li].text);
        const std::string ru = unitOf(t[ri].text);
        if (lu.empty() || ru.empty() || lu == ru)
            continue;
        findings->push_back(
            {f.relPath, t[i].line, "unit-mixing",
             "`" + t[li].text + "' (" + lu + "s) " + op + " `" +
                 t[ri].text + "' (" + ru + "s) mixes units; convert "
                 "explicitly or rename the identifier"});
    }
}

// ---------------------------------------------------------------------------
// Ownership, threading, and I/O discipline.
// ---------------------------------------------------------------------------

void
checkNoRawNew(const SourceFile &f, std::vector<Finding> *findings)
{
    const Tokens &t = f.lx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (is(t, i, "new") && !(i > 0 && is(t, i - 1, "operator"))) {
            findings->push_back({f.relPath, t[i].line, "no-raw-new",
                                 "raw new: own state via containers or "
                                 "std::unique_ptr"});
        }
        if (is(t, i, "delete") &&
            !(i > 0 && (is(t, i - 1, "=") || is(t, i - 1, "operator")))) {
            findings->push_back({f.relPath, t[i].line, "no-raw-new",
                                 "raw delete: use RAII ownership"});
        }
    }
}

bool
isAnalyzerFile(const std::string &rel)
{
    return pathUnder(rel, "tools/analyze") || rel == "tools/fdp_analyze.cc";
}

void
checkThreading(const SourceFile &f, std::vector<Finding> *findings)
{
    if (f.relPath == "src/harness/sweep_pool.hh" ||
        f.relPath == "src/harness/sweep_pool.cc")
        return;
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> primitives = {"thread", "jthread",
                                                     "async"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (is(t, i, "std") && is(t, i + 1, "::") && isIdent(t, i + 2) &&
            primitives.count(t[i + 2].text)) {
            findings->push_back(
                {f.relPath, t[i + 2].line, "pool-only-threading",
                 "std::" + t[i + 2].text + " outside the sweep pool: all "
                 "concurrency enters through harness/sweep_pool.hh"});
        }
        if (is(t, i, "pthread_create") && is(t, i + 1, "(")) {
            findings->push_back(
                {f.relPath, t[i].line, "pool-only-threading",
                 "pthread_create outside the sweep pool: all concurrency "
                 "enters through harness/sweep_pool.hh"});
        }
    }
}

void
checkFileIo(const SourceFile &f, std::vector<Finding> *findings)
{
    // The sanctioned homes of raw file I/O: the trace codecs, the
    // snapshot container (fdpsnap-v1), the two results-artifact writers
    // (reporting, the result store), and the differ that reads them
    // back. Everything else routes through them.
    if (pathUnder(f.relPath, "src/trace") ||
        pathUnder(f.relPath, "src/snap") ||
        f.relPath == "src/harness/reporting.hh" ||
        f.relPath == "src/harness/reporting.cc" ||
        f.relPath == "src/harness/result_store.cc" ||
        f.relPath == "src/harness/results_diff.cc" ||
        isAnalyzerFile(f.relPath))
        return;
    const Tokens &t = f.lx.tokens;
    static const std::set<std::string> streams = {
        "ifstream", "ofstream", "fstream", "wifstream", "wofstream",
        "wfstream", "filebuf"};
    static const std::set<std::string> cApis = {"fopen", "freopen",
                                                "tmpfile"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (is(t, i, "std") && is(t, i + 1, "::") && isIdent(t, i + 2) &&
            streams.count(t[i + 2].text)) {
            findings->push_back(
                {f.relPath, t[i + 2].line, "file-io",
                 "std::" + t[i + 2].text + " outside src/trace/ and the "
                 "harness artifact writers: route artifacts through "
                 "TraceReader/TraceWriter, ResultsJson, or ResultStore"});
        }
        if (isIdent(t, i) && cApis.count(t[i].text) && is(t, i + 1, "(") &&
            calledBare(t, i)) {
            findings->push_back(
                {f.relPath, t[i].line, "file-io",
                 t[i].text + "() outside src/trace/ and the harness "
                 "artifact writers: route artifacts through TraceReader/"
                 "TraceWriter, ResultsJson, or ResultStore"});
        }
    }
}

// ---------------------------------------------------------------------------
// Repo conventions.
// ---------------------------------------------------------------------------

void
checkLoggingOnly(const SourceFile &f, std::vector<Finding> *findings)
{
    // The logging sinks and the table printer are where diagnostics and
    // tables reach stdio; everything else reports through
    // panic/fatal/warn/inform or writes to a std::ostream.
    if (!pathUnder(f.relPath, "src") || f.relPath == "src/sim/logging.hh" ||
        f.relPath == "src/sim/logging.cc" || f.relPath == "src/sim/table.cc")
        return;
    static const std::set<std::string> banned = {
        "printf",   "fprintf",   "sprintf", "snprintf", "vprintf", "vfprintf",
        "vsprintf", "vsnprintf", "puts",    "fputs",    "putchar"};
    const Tokens &t = f.lx.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
        if (isIdent(t, i) && banned.count(t[i].text) && is(t, i + 1, "("))
            findings->push_back(
                {f.relPath, t[i].line, "logging-only",
                 "printf-family call `" + t[i].text + "' (use "
                 "panic/fatal/warn/inform or a std::ostream)"});
}

void
checkTestPairing(const SourceTree &tree, const SourceFile &f,
                 std::vector<Finding> *findings)
{
    if (!pathUnder(f.relPath, "src") || f.isHeader())
        return;
    // src/<dir>/<stem>.cc pairs with tests/<dir>/test_<stem>.cc.
    const std::size_t slash = f.relPath.rfind('/');
    const std::string test = "tests" + f.relPath.substr(3, slash - 3) +
                             "/test_" + f.relPath.substr(slash + 1);
    if (!tree.testFiles.count(test))
        findings->push_back(
            {f.relPath, 1, "test-pairing", "no test file " + test});
}

} // namespace

const std::vector<CheckInfo> &
checkCatalog()
{
    static const std::vector<CheckInfo> catalog = {
        {"unordered-iter", "iteration over std::unordered_* containers"},
        {"pointer-order", "pointer values used as an ordering or key"},
        {"rng-only", "randomness sources outside fdp::Rng"},
        {"wall-clock", "wall-clock time sources in simulation code"},
        {"audit-coverage",
         "stateful class without Auditable in src/{mem,sim,core,mc,prefetch}"},
        {"snapshot-coverage",
         "Auditable class without Snapshottable in the same subsystems"},
        {"typed-core-id", "raw integer core ids outside src/mc/"},
        {"unit-mixing", "additive arithmetic across cycle/inst/byte units"},
        {"no-raw-new", "raw new/delete"},
        {"pool-only-threading", "threading primitives outside the sweep pool"},
        {"file-io", "raw file I/O outside the sanctioned sinks"},
        {"include-guard", "missing or misnamed include guards"},
        {"include-cycle", "cyclic quoted includes"},
        {"layering", "subsystem layering violations"},
        {"suppression", "malformed suppression annotations"},
        {"logging-only",
         "printf-family calls in src/ outside the logging sinks"},
        {"test-pairing", "src/<dir>/<f>.cc without tests/<dir>/test_<f>.cc"},
    };
    return catalog;
}

std::vector<Finding>
runChecks(const SourceTree &tree)
{
    std::vector<Finding> findings;

    std::map<std::string, std::vector<std::string>> bases;
    collectClassHierarchy(tree, &bases);

    std::map<std::string, Suppressions> suppressions;
    for (const SourceFile &f : tree.files)
        suppressions[f.relPath] =
            parseSuppressions(f.relPath, f.lx.comments, &findings);

    std::vector<Finding> raw;
    for (const SourceFile &f : tree.files) {
        checkUnorderedIter(f, &raw);
        checkPointerOrder(f, &raw);
        checkRngOnly(f, &raw);
        checkWallClock(f, &raw);
        checkAuditCoverage(f, bases, &raw);
        checkSnapshotCoverage(f, bases, &raw);
        checkTypedCoreId(f, &raw);
        checkUnitMixing(f, &raw);
        checkNoRawNew(f, &raw);
        checkThreading(f, &raw);
        checkFileIo(f, &raw);
        checkLoggingOnly(f, &raw);
        checkTestPairing(tree, f, &raw);
    }

    IncludeGraph graph = buildIncludeGraph(tree);
    checkIncludeCycles(graph, &raw);
    checkIncludeGuards(tree, &raw);
    checkLayering(graph, &raw);

    for (Finding &f : raw) {
        auto it = suppressions.find(f.file);
        if (it != suppressions.end() && it->second.covers(f))
            continue;
        findings.push_back(std::move(f));
    }
    std::sort(findings.begin(), findings.end(), findingLess);
    return findings;
}

} // namespace fdp::analyze
