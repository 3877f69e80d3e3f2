/**
 * @file
 * jetty_lint: the in-repo invariant checker.
 *
 * The guarantees this tree sells — jobs=1 vs jobs=N bit-identity, atomic
 * publication of every emitted file, lossless AppRunResult serialization,
 * and the executor's failures-are-returned-strings contract — are all
 * conventions no compiler checks. This tool checks them mechanically: a
 * dependency-free C++ tokenizer (no libclang) walks src/, tools/ and
 * bench/ and enforces each convention as a hard error with file:line and
 * a rule name.
 *
 * Rule catalogue (DESIGN.md "Static analysis & race detection"):
 *
 *   determinism     Entropy, wall-clock seeds and libc RNGs are banned
 *                   outside util/random.hh. Simulated numbers may depend
 *                   only on the spec and the seed; steady_clock timing of
 *                   *wall-clock* (never simulated) numbers stays legal.
 *   unordered       Hash-ordered container types are banned in the
 *                   sim/core/verify/experiments layers: iterating one
 *                   gives a host-dependent order, which is exactly how a
 *                   bit-identity contract rots. Ordered std::map costs
 *                   nothing at these sizes and cannot drift.
 *   atomic-write    Raw file-writing APIs (std::ofstream, fopen with a
 *                   writing mode, mkstemp) are banned outside
 *                   util/atomic_file.cc and util/json.cc. Every file this
 *                   tree publishes must appear atomically (PR 8's
 *                   contract): same-dir temp, fsync, rename.
 *   no-fatal        exit()/abort()/terminate() are banned in src/ outside
 *                   util/logging.hh (fatal()/panic() are the sanctioned
 *                   wrappers). The service executor's contract is that
 *                   failures come back as strings, never as a dead
 *                   process.
 *   checked-number  atoi/atof/atol/atoll are banned everywhere: they map
 *                   garbage to 0, so a typo'd flag or environment value
 *                   silently runs something else. So is a strtol/
 *                   strtoll/strtoul/strtoull/strtod/strtof call whose
 *                   end pointer is null (nullptr, NULL, 0): it reads
 *                   "1e9" as 1. parseUnsigned() and parseDouble()
 *                   (util/string_utils.hh) refuse both.
 *   serialization   The X-macro field lists in run_result_json.cc and
 *                   the shard envelope lists in dist/shard.cc must
 *                   losslessly cover every scalar member of the structs
 *                   they serialize (ProcStats, L2Traffic, FilterStats,
 *                   FilterEnergyCosts, BusStats, ShardRequest,
 *                   ShardResponse), and every member of the
 *                   hand-serialized structs (SimStats, AppRunResult,
 *                   plus the shard envelopes) must be referenced by its
 *                   serializer TU. A new counter that skips the list
 *                   silently corrupts the disk cache's bit-identity
 *                   guarantee — and a shard field that skips its list
 *                   silently diverges coordinator and worker; this rule
 *                   turns both into a build break naming the field.
 *   escape          Meta-rule: malformed or stale escape comments.
 *
 * Escape hatch: a finding is suppressed by
 *     // jetty-lint: allow(<rule>): <non-empty justification>
 * on the same line, or on a comment-only line immediately above. An
 * unknown rule name, a missing justification, or an escape that no
 * longer suppresses anything is itself an error — annotations cannot
 * rot in place.
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

#include "api/report.hh"
#include "util/json.hh"

namespace
{

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

struct Finding
{
    std::string file;  //!< path relative to the scan root
    int line = 0;
    std::string rule;
    std::string message;
};

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

enum class TokKind
{
    Ident,
    Number,
    Str,
    Chr,
    Punct,
};

struct Token
{
    TokKind kind;
    std::string text;
    int line;
};

/** One comment, kept for escape-hatch parsing. */
struct Comment
{
    int line;       //!< line the comment starts on
    bool ownLine;   //!< nothing but whitespace precedes it on its line
    std::string text;
};

struct LexedFile
{
    std::vector<Token> toks;
    std::vector<Comment> comments;
};

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || (c >= '0' && c <= '9');
}

/** Tokenize C++ source: identifiers, numbers, string/char literals
 *  (including raw strings), punctuation; comments are captured
 *  separately. Preprocessor lines are tokenized like ordinary code. */
LexedFile
lex(const std::string &src)
{
    LexedFile out;
    const std::size_t n = src.size();
    std::size_t i = 0;
    int line = 1;
    bool line_has_code = false;

    const auto push = [&](TokKind k, std::string text, int at) {
        out.toks.push_back({k, std::move(text), at});
        line_has_code = true;
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            line_has_code = false;
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
            ++i;
            continue;
        }
        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const int at = line;
            const bool own = !line_has_code;
            std::size_t j = i + 2;
            while (j < n && src[j] != '\n')
                ++j;
            out.comments.push_back({at, own, src.substr(i + 2, j - i - 2)});
            i = j;
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const int at = line;
            const bool own = !line_has_code;
            std::size_t j = i + 2;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
                if (src[j] == '\n')
                    ++line;
                ++j;
            }
            out.comments.push_back({at, own, src.substr(i + 2, j - i - 2)});
            i = (j + 1 < n) ? j + 2 : n;
            continue;
        }
        // Raw string literal R"delim( ... )delim".
        if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
            std::size_t j = i + 2;
            std::string delim;
            while (j < n && src[j] != '(' && src[j] != '\n')
                delim += src[j++];
            const std::string closer = ")" + delim + "\"";
            const std::size_t end = src.find(closer, j);
            const std::size_t stop =
                end == std::string::npos ? n : end + closer.size();
            const int at = line;
            for (std::size_t k = i; k < stop; ++k)
                if (src[k] == '\n')
                    ++line;
            push(TokKind::Str, src.substr(i, stop - i), at);
            i = stop;
            continue;
        }
        // String / char literal.
        if (c == '"' || c == '\'') {
            const char quote = c;
            const int at = line;
            std::size_t j = i + 1;
            while (j < n && src[j] != quote) {
                if (src[j] == '\\' && j + 1 < n)
                    ++j;
                else if (src[j] == '\n')
                    ++line;  // unterminated literal; stay robust
                ++j;
            }
            const std::size_t stop = j < n ? j + 1 : n;
            push(quote == '"' ? TokKind::Str : TokKind::Chr,
                 src.substr(i, stop - i), at);
            i = stop;
            continue;
        }
        // Identifier / keyword.
        if (isIdentStart(c)) {
            std::size_t j = i + 1;
            while (j < n && isIdentChar(src[j]))
                ++j;
            push(TokKind::Ident, src.substr(i, j - i), line);
            i = j;
            continue;
        }
        // Number (good enough: digits, dots, exponents, suffixes).
        if (c >= '0' && c <= '9') {
            std::size_t j = i + 1;
            while (j < n && (isIdentChar(src[j]) || src[j] == '.' ||
                             ((src[j] == '+' || src[j] == '-') && j > 0 &&
                              (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                               src[j - 1] == 'p' || src[j - 1] == 'P'))))
                ++j;
            push(TokKind::Number, src.substr(i, j - i), line);
            i = j;
            continue;
        }
        // Multi-char punctuation we care about: :: -> ; everything else
        // single char.
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            push(TokKind::Punct, "::", line);
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            push(TokKind::Punct, "->", line);
            i += 2;
            continue;
        }
        push(TokKind::Punct, std::string(1, c), line);
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------
// Escape hatch
// ---------------------------------------------------------------------

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> rules = {
        "determinism", "unordered", "atomic-write", "no-fatal",
        "checked-number", "serialization",
    };
    return rules;
}

/** One parsed `jetty-lint: allow(rule): why` annotation. */
struct Escape
{
    int targetLine;  //!< the line whose findings it suppresses
    int commentLine; //!< where the annotation itself sits
    std::string rule;
    bool used = false;
};

/** Extract allow() annotations (and malformed-annotation findings) from
 *  a file's comments. A trailing comment covers its own line; a
 *  comment-only line covers the next line. */
std::vector<Escape>
parseEscapes(const std::string &file, const std::vector<Comment> &comments,
             std::vector<Finding> &findings)
{
    std::vector<Escape> escapes;
    const std::string marker = "jetty-lint:";
    for (const auto &c : comments) {
        // The marker must open the comment (prose *mentioning* the
        // annotation format, like this file's header, is not an escape).
        const std::size_t at = c.text.find_first_not_of(" \t");
        if (at == std::string::npos ||
            c.text.compare(at, marker.size(), marker) != 0)
            continue;
        std::size_t pos = at + marker.size();
        const auto fail = [&](const std::string &why) {
            findings.push_back({file, c.line, "escape", why});
        };
        // allow(
        const std::size_t open = c.text.find("allow(", pos);
        if (open == std::string::npos) {
            fail("malformed jetty-lint annotation: expected "
                 "'allow(<rule>): <justification>'");
            continue;
        }
        const std::size_t close = c.text.find(')', open);
        if (close == std::string::npos) {
            fail("malformed jetty-lint annotation: unterminated allow(");
            continue;
        }
        const std::string rule =
            c.text.substr(open + 6, close - open - 6);
        if (knownRules().count(rule) == 0) {
            fail("unknown lint rule '" + rule + "' in allow()");
            continue;
        }
        // Required justification after "):".
        std::size_t j = close + 1;
        if (j < c.text.size() && c.text[j] == ':')
            ++j;
        while (j < c.text.size() &&
               (c.text[j] == ' ' || c.text[j] == '\t'))
            ++j;
        if (j >= c.text.size()) {
            fail("allow(" + rule +
                 ") needs a justification: '// jetty-lint: allow(" + rule +
                 "): <why this is safe>'");
            continue;
        }
        escapes.push_back(
            {c.ownLine ? c.line + 1 : c.line, c.line, rule, false});
    }
    return escapes;
}

// ---------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Layers where hash-ordered iteration can corrupt simulated numbers. */
bool
inDeterministicLayer(const std::string &rel)
{
    return startsWith(rel, "src/sim/") || startsWith(rel, "src/core/") ||
           startsWith(rel, "src/verify/") ||
           startsWith(rel, "src/experiments/");
}

bool
isAllowlisted(const std::string &rel, const char *rule)
{
    if (std::strcmp(rule, "determinism") == 0)
        return rel == "src/util/random.hh";
    if (std::strcmp(rule, "atomic-write") == 0)
        return rel == "src/util/atomic_file.cc" ||
               rel == "src/util/atomic_file.hh" || rel == "src/util/json.cc";
    if (std::strcmp(rule, "no-fatal") == 0)
        return rel == "src/util/logging.hh";
    return false;
}

// ---------------------------------------------------------------------
// Token-level rules
// ---------------------------------------------------------------------

struct FileCheck
{
    const std::string &rel;
    const std::vector<Token> &toks;
    std::vector<Finding> raw;  //!< pre-escape findings

    void
    add(int line, const char *rule, const std::string &msg)
    {
        raw.push_back({rel, line, rule, msg});
    }
};

const Token *
prev(const std::vector<Token> &t, std::size_t i, std::size_t back = 1)
{
    return i >= back ? &t[i - back] : nullptr;
}

const Token *
next(const std::vector<Token> &t, std::size_t i, std::size_t fwd = 1)
{
    return i + fwd < t.size() ? &t[i + fwd] : nullptr;
}

bool
isCall(const std::vector<Token> &t, std::size_t i)
{
    const Token *nx = next(t, i);
    return nx && nx->kind == TokKind::Punct && nx->text == "(";
}

/** True when the identifier at @p i is qualified by something other than
 *  `std` (Foo::bar — a project method, not the libc/std symbol). */
bool
nonStdQualified(const std::vector<Token> &t, std::size_t i)
{
    const Token *p1 = prev(t, i, 1);
    if (!p1 || p1->text != "::")
        return false;
    const Token *p2 = prev(t, i, 2);
    return p2 && !(p2->kind == TokKind::Ident && p2->text == "std");
}

bool
memberAccess(const std::vector<Token> &t, std::size_t i)
{
    const Token *p1 = prev(t, i, 1);
    return p1 && p1->kind == TokKind::Punct &&
           (p1->text == "." || p1->text == "->");
}

/** Heuristic: the identifier at @p i is being *declared* (method decl /
 *  definition), not called: `void abort();`, `AtomicFile::abort() {...}`. */
bool
isDeclaration(const std::vector<Token> &t, std::size_t i)
{
    static const std::set<std::string> typeish = {
        "void", "int", "bool", "auto", "char", "long", "unsigned", "~",
    };
    const Token *p1 = prev(t, i, 1);
    return p1 && typeish.count(p1->text) != 0;
}

void
checkDeterminism(FileCheck &fc)
{
    if (isAllowlisted(fc.rel, "determinism"))
        return;
    // Banned wherever they appear: entropy sources and wall-clock types
    // that could seed or perturb simulated numbers.
    static const std::map<std::string, std::string> banned_idents = {
        {"random_device", "std::random_device is entropy; seed from "
                          "util/random.hh (kDefaultRngSeed) instead"},
        {"system_clock", "system_clock is wall-clock state; simulated "
                         "numbers may depend only on spec + seed "
                         "(steady_clock is legal for timing)"},
        {"high_resolution_clock", "high_resolution_clock may alias "
                                  "system_clock; use steady_clock"},
        {"srand", "libc RNG seeding is banned; use jetty::Rng"},
        {"srandom", "libc RNG seeding is banned; use jetty::Rng"},
        {"rand_r", "libc RNG is banned; use jetty::Rng"},
        {"drand48", "libc RNG is banned; use jetty::Rng"},
        {"lrand48", "libc RNG is banned; use jetty::Rng"},
        {"mrand48", "libc RNG is banned; use jetty::Rng"},
        {"gettimeofday", "wall-clock reads are banned; steady_clock "
                         "timing via <chrono> is the sanctioned path"},
    };
    // Banned only in call form (the bare names are common words).
    static const std::map<std::string, std::string> banned_calls = {
        {"rand", "rand() is a hidden global RNG; use jetty::Rng"},
        {"random", "random() is a hidden global RNG; use jetty::Rng"},
        {"clock", "clock() reads host time; use steady_clock for "
                  "timing, never for simulated numbers"},
    };
    const auto &t = fc.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const auto bi = banned_idents.find(t[i].text);
        if (bi != banned_idents.end()) {
            fc.add(t[i].line, "determinism", bi->second);
            continue;
        }
        const auto bc = banned_calls.find(t[i].text);
        if (bc != banned_calls.end() && isCall(t, i) &&
            !memberAccess(t, i) && !nonStdQualified(t, i) &&
            !isDeclaration(t, i)) {
            fc.add(t[i].line, "determinism", bc->second);
            continue;
        }
        // Arg-less time(): time(0) / time(NULL) / time(nullptr).
        if (t[i].text == "time" && isCall(t, i) && !memberAccess(t, i) &&
            !nonStdQualified(t, i)) {
            const Token *a = next(t, i, 2);
            const Token *b = next(t, i, 3);
            if (a && b && b->text == ")" &&
                (a->text == "0" || a->text == "NULL" ||
                 a->text == "nullptr")) {
                fc.add(t[i].line, "determinism",
                       "time(" + a->text +
                           ") is a wall-clock seed; simulated numbers "
                           "may depend only on spec + seed");
            }
        }
    }
}

void
checkUnordered(FileCheck &fc)
{
    if (!inDeterministicLayer(fc.rel))
        return;
    static const char *const kUnorderedTypes[] = {
        // Spelled split so jetty_lint stays clean under its own scan.
        "unordered" "_map", "unordered" "_set", "unordered" "_multimap",
        "unordered" "_multiset",
    };
    const auto &t = fc.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        for (const char *type : kUnorderedTypes) {
            if (t[i].text == type) {
                fc.add(t[i].line, "unordered",
                       std::string("std::") + type +
                           " iterates in hash order, which is "
                           "host-dependent; the " +
                           "sim/core/verify/experiments layers carry a "
                           "bit-identity contract — use std::map / "
                           "std::set or a sorted vector");
                break;
            }
        }
    }
}

void
checkAtomicWrite(FileCheck &fc)
{
    if (isAllowlisted(fc.rel, "atomic-write"))
        return;
    const auto &t = fc.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        if (t[i].text == "ofstream" || t[i].text == "mkstemp" ||
            t[i].text == "mkostemp") {
            fc.add(t[i].line, "atomic-write",
                   t[i].text + " bypasses atomic publication; write "
                               "through util/atomic_file.hh "
                               "(AtomicFile / writeFileAtomic) or "
                               "json::writeFile");
            continue;
        }
        if ((t[i].text == "fopen" || t[i].text == "freopen") &&
            isCall(t, i) && !memberAccess(t, i) && !nonStdQualified(t, i)) {
            // The mode is argument 2 for both fopen and freopen. Walk
            // the argument list at depth 1.
            std::size_t j = i + 2;  // first token after '('
            int depth = 1;
            int arg = 1;
            const Token *mode = nullptr;
            for (; j < t.size() && depth > 0; ++j) {
                const std::string &x = t[j].text;
                if (t[j].kind == TokKind::Punct) {
                    if (x == "(" || x == "[" || x == "{")
                        ++depth;
                    else if (x == ")" || x == "]" || x == "}")
                        --depth;
                    else if (x == "," && depth == 1) {
                        ++arg;
                        continue;
                    }
                }
                if (arg == 2 && !mode)
                    mode = &t[j];
            }
            if (!mode) {
                fc.add(t[i].line, "atomic-write",
                       t[i].text + " with no mode argument");
            } else if (mode->kind != TokKind::Str) {
                fc.add(t[i].line, "atomic-write",
                       t[i].text + " mode is not a string literal; the "
                                   "lint cannot prove it read-only");
            } else if (mode->text.find('w') != std::string::npos ||
                       mode->text.find('a') != std::string::npos ||
                       mode->text.find('+') != std::string::npos) {
                fc.add(t[i].line, "atomic-write",
                       t[i].text + " with writing mode " + mode->text +
                           " bypasses atomic publication; use "
                           "util/atomic_file.hh (same-dir temp, fsync, "
                           "rename)");
            }
        }
    }
}

void
checkNoFatal(FileCheck &fc)
{
    if (!startsWith(fc.rel, "src/"))
        return;  // tools/ and bench/ are executables; exiting is their job
    if (isAllowlisted(fc.rel, "no-fatal"))
        return;
    static const std::set<std::string> banned = {
        "exit", "abort", "_exit", "_Exit", "quick_exit", "terminate",
    };
    const auto &t = fc.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || banned.count(t[i].text) == 0)
            continue;
        if (!isCall(t, i))
            continue;  // a name, not a call
        if (memberAccess(t, i))
            continue;  // obj.abort() — a project method
        if (nonStdQualified(t, i))
            continue;  // AtomicFile::abort() { — definition/qualified call
        if (isDeclaration(t, i))
            continue;  // void abort(); — declaring a method
        fc.add(t[i].line, "no-fatal",
               t[i].text + "() kills the process; library code returns "
                           "failures as strings (service executor "
                           "contract) — or goes through "
                           "util/logging.hh fatal()/panic() for "
                           "construction-time invariants");
    }
}

/** The call at @p i passes a null literal (nullptr, NULL or 0) as its
 *  second argument. */
bool
nullSecondArg(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i + 1; j + 2 < t.size(); ++j) {
        const std::string p = t[j].kind == TokKind::Punct ? t[j].text : "";
        depth += (p == "(" || p == "[" || p == "{") -
                 (p == ")" || p == "]" || p == "}");
        if (depth == 0)
            return false;
        if (depth == 1 && p == ",")
            return (t[j + 1].text == "nullptr" || t[j + 1].text == "NULL" ||
                    t[j + 1].text == "0") &&
                   (t[j + 2].text == "," || t[j + 2].text == ")");
    }
    return false;
}

void
checkCheckedNumber(FileCheck &fc)
{
    static const std::set<std::string> banned = {"atoi", "atof", "atol",
                                                 "atoll"};
    static const std::set<std::string> unchecked = {
        "strtol", "strtoll", "strtoul", "strtoull", "strtod", "strtof"};
    const auto &t = fc.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !isCall(t, i) ||
            memberAccess(t, i) || nonStdQualified(t, i) ||
            isDeclaration(t, i))
            continue;
        if (banned.count(t[i].text) != 0) {
            fc.add(t[i].line, "checked-number",
                   t[i].text + "() maps garbage to 0; use parseUnsigned() "
                               "or parseDouble() (util/string_utils.hh) "
                               "and reject what they refuse");
        } else if (unchecked.count(t[i].text) != 0 &&
                   nullSecondArg(t, i)) {
            fc.add(t[i].line, "checked-number",
                   t[i].text + "() with a null end pointer cannot see "
                               "trailing garbage (\"1e9\" reads as 1); "
                               "use parseUnsigned() or parseDouble() "
                               "(util/string_utils.hh)");
        }
    }
}

// ---------------------------------------------------------------------
// Serialization completeness (cross-file)
// ---------------------------------------------------------------------

struct MemberInfo
{
    std::string name;
    int line;
    bool scalar;  //!< counter-like: uint64/double/bool/... (not a struct)
};

struct StructDef
{
    std::string file;
    int line = 0;
    std::vector<MemberInfo> members;
    bool found = false;
};

struct MacroList
{
    std::string file;
    int line = 0;
    std::vector<MemberInfo> entries;
    bool found = false;
};

/** Parse the instance members of `struct <name> { ... };` wherever it is
 *  defined in @p toks. Function declarations (anything with parentheses
 *  before the terminating ';'), static/constexpr members, and nested
 *  types are skipped. */
bool
parseStruct(const std::vector<Token> &t, const std::string &name,
            StructDef &out)
{
    static const std::set<std::string> scalar_types = {
        "uint64_t", "uint32_t", "int64_t", "int32_t", "uint8_t",
        "int8_t",   "size_t",   "double",  "float",   "bool",
        "int",      "unsigned", "long",    "short",   "char",
        "string",
    };
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            (t[i].text != "struct" && t[i].text != "class"))
            continue;
        if (t[i + 1].text != name)
            continue;
        // Skip to the opening brace; a ';' first means forward decl.
        std::size_t j = i + 2;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";")
            ++j;
        if (j >= t.size() || t[j].text == ";")
            continue;
        out.line = t[i].line;
        // Walk the body at depth 1, collecting declaration spans.
        int depth = 1;
        std::vector<const Token *> span;
        bool skip_decl = false;  // static / constexpr / using / friend
        bool has_paren = false;
        for (++j; j < t.size() && depth > 0; ++j) {
            const Token &x = t[j];
            if (x.kind == TokKind::Punct) {
                if (x.text == "{") {
                    // Method body or brace initializer: skip to match.
                    int d = 1;
                    for (++j; j < t.size() && d > 0; ++j) {
                        if (t[j].text == "{")
                            ++d;
                        else if (t[j].text == "}")
                            --d;
                    }
                    --j;
                    // A method body also terminates a declaration.
                    if (has_paren) {
                        span.clear();
                        skip_decl = false;
                        has_paren = false;
                    }
                    continue;
                }
                if (x.text == "}") {
                    --depth;
                    continue;
                }
                if (x.text == "(")
                    has_paren = true;
                if (x.text == ";") {
                    if (!skip_decl && !has_paren && span.size() >= 2) {
                        // Type tokens ... then declarator name(s).
                        // Multi-declarators split at top-level commas.
                        std::vector<std::vector<const Token *>> chunks(1);
                        int angle = 0;
                        for (const Token *s : span) {
                            if (s->text == "<")
                                ++angle;
                            else if (s->text == ">")
                                angle = angle > 0 ? angle - 1 : 0;
                            if (s->text == "," && angle == 0)
                                chunks.emplace_back();
                            else
                                chunks.back().push_back(s);
                        }
                        const bool is_scalar =
                            std::any_of(span.begin(), span.end(),
                                        [&](const Token *s) {
                                            return scalar_types.count(
                                                       s->text) != 0;
                                        });
                        for (const auto &chunk : chunks) {
                            // Name: last identifier before '=' / '{',
                            // else the last identifier of the chunk.
                            const Token *nm = nullptr;
                            for (const Token *s : chunk) {
                                if (s->text == "=")
                                    break;
                                if (s->kind == TokKind::Ident)
                                    nm = s;
                            }
                            // The lone type token of a chunk with no
                            // declarator (e.g. `};` artifacts) — require
                            // at least type + name in chunk 0.
                            if (nm && !(chunk.size() == 1 &&
                                        &chunk == &chunks.front()))
                                out.members.push_back(
                                    {nm->text, nm->line, is_scalar});
                        }
                    }
                    span.clear();
                    skip_decl = false;
                    has_paren = false;
                    continue;
                }
            }
            if (x.kind == TokKind::Ident &&
                (x.text == "static" || x.text == "constexpr" ||
                 x.text == "using" || x.text == "typedef" ||
                 x.text == "friend" || x.text == "struct" ||
                 x.text == "class" || x.text == "enum"))
                skip_decl = true;
            if (depth == 1)
                span.push_back(&x);
        }
        out.found = true;
        return true;
    }
    return false;
}

/** Extract `X(field)` / `X(field, kind)` entries from
 *  `#define <macro>(X)` continuation blocks in raw text (the X-macro
 *  field lists of run_result_json.cc and dist/shard.cc — the shard
 *  envelope lists carry a second reader-kind argument; only the field
 *  name participates in the completeness contract). */
bool
parseMacroList(const std::string &src, const std::string &macro,
               MacroList &out)
{
    std::size_t pos = 0;
    int line = 1;
    while (pos < src.size()) {
        std::size_t eol = src.find('\n', pos);
        if (eol == std::string::npos)
            eol = src.size();
        std::string l = src.substr(pos, eol - pos);
        std::size_t ws = l.find_first_not_of(" \t");
        if (ws != std::string::npos && l[ws] == '#' &&
            l.find("define", ws) != std::string::npos &&
            l.find(macro, ws) != std::string::npos) {
            out.line = line;
            out.found = true;
            // Consume the continuation block.
            std::string body;
            int at = line;
            while (true) {
                body += l;
                body += '\n';
                const bool cont = !l.empty() && l.back() == '\\';
                if (!cont)
                    break;
                pos = eol + 1;
                ++line;
                if (pos >= src.size())
                    break;
                eol = src.find('\n', pos);
                if (eol == std::string::npos)
                    eol = src.size();
                l = src.substr(pos, eol - pos);
            }
            // Scan body for X(ident).
            int bl = at;
            for (std::size_t i = 0; i < body.size(); ++i) {
                if (body[i] == '\n') {
                    ++bl;
                    continue;
                }
                if (body[i] == 'X' && i + 1 < body.size() &&
                    body[i + 1] == '(' &&
                    (i == 0 || !isIdentChar(body[i - 1]))) {
                    std::size_t j = i + 2;
                    std::string ident;
                    while (j < body.size() && isIdentChar(body[j]))
                        ident += body[j++];
                    if (j < body.size() &&
                        (body[j] == ')' || body[j] == ',') &&
                        !ident.empty())
                        out.entries.push_back({ident, bl, true});
                    i = j;
                }
            }
            return true;
        }
        pos = eol + 1;
        ++line;
    }
    return false;
}

// ---------------------------------------------------------------------
// Directory walking
// ---------------------------------------------------------------------

bool
hasSourceSuffix(const std::string &name)
{
    const auto ends = [&](const char *suf) {
        const std::size_t ln = std::strlen(suf);
        return name.size() >= ln &&
               name.compare(name.size() - ln, ln, suf) == 0;
    };
    return ends(".cc") || ends(".hh") || ends(".cpp") || ends(".hpp") ||
           ends(".h");
}

void
collectFiles(const std::string &root, const std::string &rel,
             std::vector<std::string> &out)
{
    const std::string dir = root + "/" + rel;
    DIR *d = opendir(dir.c_str());
    if (!d)
        return;
    std::vector<std::string> names;
    while (struct dirent *e = readdir(d)) {
        if (e->d_name[0] == '.')
            continue;
        names.emplace_back(e->d_name);
    }
    closedir(d);
    std::sort(names.begin(), names.end());  // deterministic scan order
    for (const auto &name : names) {
        const std::string sub = rel + "/" + name;
        struct stat st;
        if (stat((root + "/" + sub).c_str(), &st) != 0)
            continue;
        if (S_ISDIR(st.st_mode))
            collectFiles(root, sub, out);
        else if (S_ISREG(st.st_mode) && hasSourceSuffix(name))
            out.push_back(sub);
    }
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

// ---------------------------------------------------------------------
// Serialization completeness driver
// ---------------------------------------------------------------------

struct SerializationPair
{
    const char *macro;   //!< X-macro list name in the serializer
    const char *strct;   //!< struct whose scalar members it must cover
    const char *file;    //!< serializer TU basename the list lives in
};

/** The lossless-serialization contract: each X-macro list covers every
 *  scalar member of its struct. The disk-cache lists live in
 *  run_result_json.cc; the distributed shard envelope lists live in
 *  dist/shard.cc (two-arg entries — name plus reader kind). */
constexpr SerializationPair kPairs[] = {
    {"JETTY_PROC_STAT_FIELDS", "ProcStats", "run_result_json.cc"},
    {"JETTY_L2_TRAFFIC_FIELDS", "L2Traffic", "run_result_json.cc"},
    {"JETTY_FILTER_STAT_FIELDS", "FilterStats", "run_result_json.cc"},
    {"JETTY_FILTER_COST_FIELDS", "FilterEnergyCosts",
     "run_result_json.cc"},
    {"JETTY_BUS_STAT_FIELDS", "BusStats", "run_result_json.cc"},
    {"JETTY_SHARD_REQUEST_FIELDS", "ShardRequest", "shard.cc"},
    {"JETTY_SHARD_RESPONSE_FIELDS", "ShardResponse", "shard.cc"},
};

struct ReferencedStruct
{
    const char *strct;  //!< struct serialized by hand-written code
    const char *file;   //!< serializer TU basename that must name
                        //!< every member
};

/** Structs whose members must at least be *referenced* by their
 *  serializer TU (hand-written code, not X macros, serializes the
 *  non-scalar parts, so completeness is checked by member-name
 *  reference). */
constexpr ReferencedStruct kReferencedStructs[] = {
    {"SimStats", "run_result_json.cc"},
    {"AppRunResult", "run_result_json.cc"},
    {"ShardRequest", "shard.cc"},
    {"ShardResponse", "shard.cc"},
};

struct ScannedFile
{
    std::string rel;
    std::string text;
    LexedFile lexed;
};

void
checkSerialization(const std::vector<ScannedFile> &files,
                   std::vector<Finding> &findings)
{
    // Locate a serializer TU by basename (if the tree has one).
    const auto findByBase = [&files](const char *base) {
        const ScannedFile *hit = nullptr;
        for (const auto &f : files) {
            const std::size_t slash = f.rel.find_last_of('/');
            const std::string b = slash == std::string::npos
                                      ? f.rel
                                      : f.rel.substr(slash + 1);
            if (b == base) {
                hit = &f;
                break;
            }
        }
        return hit;
    };

    for (const auto &pair : kPairs) {
        // Find the struct definition anywhere in the scanned tree.
        StructDef def;
        for (const auto &f : files) {
            StructDef candidate;
            if (parseStruct(f.lexed.toks, pair.strct, candidate)) {
                if (def.found) {
                    findings.push_back(
                        {f.rel, candidate.line, "serialization",
                         std::string("duplicate definition of struct ") +
                             pair.strct + " (also in " + def.file +
                             "); the serialization contract needs one"});
                    continue;
                }
                def = candidate;
                def.file = f.rel;
            }
        }
        // Find the macro list (in the serializer TU if present, else
        // anywhere — fixture trees keep them in one file).
        MacroList list;
        for (const auto &f : files) {
            MacroList candidate;
            if (parseMacroList(f.text, pair.macro, candidate)) {
                list = candidate;
                list.file = f.rel;
                break;
            }
        }

        if (!def.found && !list.found)
            continue;  // this tree has neither side of the pair
        if (def.found && !list.found) {
            findings.push_back(
                {def.file, def.line, "serialization",
                 std::string("struct ") + pair.strct +
                     " has no " + pair.macro + " X-macro list in " +
                     pair.file +
                     "; its counters would not survive the disk cache"});
            continue;
        }
        if (list.found && !def.found) {
            findings.push_back(
                {list.file, list.line, "serialization",
                 std::string(pair.macro) + " exists but struct " +
                     pair.strct + " was not found in the scanned tree"});
            continue;
        }

        std::set<std::string> in_list;
        for (const auto &e : list.entries)
            in_list.insert(e.name);
        std::set<std::string> in_struct;
        for (const auto &m : def.members)
            if (m.scalar)
                in_struct.insert(m.name);

        for (const auto &m : def.members) {
            if (m.scalar && in_list.count(m.name) == 0)
                findings.push_back(
                    {def.file, m.line, "serialization",
                     std::string(pair.strct) + "::" + m.name +
                         " is missing from " + pair.macro + " (" +
                         list.file + ":" + std::to_string(list.line) +
                         "); a run restored from the disk cache would "
                         "silently drop it"});
        }
        for (const auto &e : list.entries) {
            if (in_struct.count(e.name) == 0)
                findings.push_back(
                    {list.file, e.line, "serialization",
                     std::string(pair.macro) + " names '" + e.name +
                         "', which is not a scalar member of " +
                         pair.strct + " (" + def.file + ":" +
                         std::to_string(def.line) + ") — stale entry?"});
        }
    }

    // Reference completeness for the hand-serialized structs: every
    // member must at least be named in that struct's serializer TU.
    for (const auto &rs : kReferencedStructs) {
        const ScannedFile *serializer = findByBase(rs.file);
        if (!serializer)
            continue;
        std::set<std::string> serializer_idents;
        for (const auto &tok : serializer->lexed.toks)
            if (tok.kind == TokKind::Ident)
                serializer_idents.insert(tok.text);
        StructDef def;
        for (const auto &f : files) {
            if (parseStruct(f.lexed.toks, rs.strct, def)) {
                def.file = f.rel;
                break;
            }
        }
        if (!def.found)
            continue;
        for (const auto &m : def.members) {
            if (serializer_idents.count(m.name) == 0)
                findings.push_back(
                    {def.file, m.line, "serialization",
                     std::string(rs.strct) + "::" + m.name +
                         " is never referenced in " + rs.file +
                         "; the serialized round trip would drop it"});
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--json FILE] [--list-rules] [PATH...]\n"
        "\n"
        "Checks the project invariants (determinism, atomic publication,\n"
        "lossless serialization, library-never-fatal, checked numbers)\n"
        "over src/, tools/ and bench/ under --root (default: the current\n"
        "directory).\n"
        "PATH arguments (relative to the root) restrict the scan.\n"
        "\n"
        "  --root DIR     tree to scan\n"
        "  --json FILE    write findings as a structured api::Report\n"
        "  --list-rules   print the rule names allow() accepts\n"
        "\n"
        "Escape hatch (same line, or a comment-only line directly above):\n"
        "  // jetty-lint: allow(<rule>): <justification>\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string json_out;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--json" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (arg == "--list-rules") {
            for (const auto &r : knownRules())
                std::printf("%s\n", r.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "jetty_lint: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }

    // Collect the file set.
    std::vector<std::string> rels;
    if (paths.empty()) {
        for (const char *dir : {"src", "tools", "bench"})
            collectFiles(root, dir, rels);
    } else {
        for (const auto &p : paths) {
            struct stat st;
            const std::string full = root + "/" + p;
            if (stat(full.c_str(), &st) != 0) {
                std::fprintf(stderr, "jetty_lint: cannot stat %s\n",
                             full.c_str());
                return 2;
            }
            if (S_ISDIR(st.st_mode))
                collectFiles(root, p, rels);
            else
                rels.push_back(p);
        }
    }
    if (rels.empty()) {
        std::fprintf(stderr,
                     "jetty_lint: no source files under %s "
                     "(src/, tools/, bench/)\n",
                     root.c_str());
        return 2;
    }

    // Read + lex everything once (the serialization pass is cross-file).
    std::vector<ScannedFile> files;
    files.reserve(rels.size());
    for (const auto &rel : rels) {
        ScannedFile f;
        f.rel = rel;
        if (!readFile(root + "/" + rel, f.text)) {
            std::fprintf(stderr, "jetty_lint: cannot read %s/%s\n",
                         root.c_str(), rel.c_str());
            return 2;
        }
        f.lexed = lex(f.text);
        files.push_back(std::move(f));
    }

    std::vector<Finding> findings;

    // Token-level rules, with per-file escape application.
    for (const auto &f : files) {
        FileCheck fc{f.rel, f.lexed.toks, {}};
        checkDeterminism(fc);
        checkUnordered(fc);
        checkAtomicWrite(fc);
        checkNoFatal(fc);
        checkCheckedNumber(fc);

        std::vector<Escape> escapes =
            parseEscapes(f.rel, f.lexed.comments, findings);
        for (const auto &raw : fc.raw) {
            bool suppressed = false;
            for (auto &e : escapes) {
                if (e.rule == raw.rule && (e.targetLine == raw.line ||
                                           e.commentLine == raw.line)) {
                    e.used = true;
                    suppressed = true;
                }
            }
            if (!suppressed)
                findings.push_back(raw);
        }
        for (const auto &e : escapes) {
            if (!e.used)
                findings.push_back(
                    {f.rel, e.commentLine, "escape",
                     "stale escape: allow(" + e.rule +
                         ") suppresses nothing on line " +
                         std::to_string(e.targetLine) +
                         " — remove the annotation"});
        }
    }

    // Cross-file serialization completeness (escapes do not apply: a
    // missing field has no line to annotate).
    checkSerialization(files, findings);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    for (const auto &f : findings)
        std::printf("%s:%d: error: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());

    if (!json_out.empty()) {
        jetty::api::Report report("lint");
        auto &rootv = report.root();
        rootv.set("files_scanned",
                  static_cast<std::uint64_t>(files.size()));
        rootv.set("clean", findings.empty());
        jetty::json::Value arr = jetty::json::Value::array();
        for (const auto &f : findings) {
            jetty::json::Value row = jetty::json::Value::object();
            row.set("file", f.file);
            row.set("line", static_cast<std::uint64_t>(f.line));
            row.set("rule", f.rule);
            row.set("message", f.message);
            arr.push(std::move(row));
        }
        rootv.set("findings", std::move(arr));
        report.writeFile(json_out);
    }

    if (findings.empty()) {
        std::printf("jetty_lint: %zu files clean\n", files.size());
        return 0;
    }
    std::printf("jetty_lint: %zu finding%s in %zu files\n", findings.size(),
                findings.size() == 1 ? "" : "s", files.size());
    return 1;
}
