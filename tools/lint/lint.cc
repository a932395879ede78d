#include "lint.hh"
#include "token.hh"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace coterie::lint {

namespace {

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/** True when the identifier ending right before @p i is a raw-string
 *  prefix (R, u8R, uR, UR, LR). */
bool
isRawStringPrefix(const std::string &s, std::size_t i)
{
    if (i == 0 || s[i - 1] != 'R')
        return false;
    // The char before the R must not extend an identifier (so `FooR"`
    // is not a raw string) unless it is one of the encoding prefixes.
    if (i >= 2) {
        const char p = s[i - 2];
        if (isWordChar(p)) {
            const bool encoding =
                p == 'u' || p == 'U' || p == 'L' ||
                (p == '8' && i >= 3 && s[i - 3] == 'u');
            if (!encoding)
                return false;
            if (i >= 3 && isWordChar(s[i - 3]) &&
                !(p == '8' && s[i - 3] == 'u'))
                return false;
        }
    }
    return true;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &src)
{
    enum class State { Code, LineComment, BlockComment, Str, Chr, Raw };
    std::string out = src;
    State state = State::Code;
    std::string rawDelim; // raw-string closer: )delim
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto blank = [&](std::size_t at) {
        if (out[at] != '\n')
            out[at] = ' ';
    };

    while (i < n) {
        const char c = src[i];
        switch (state) {
          case State::Code:
            if (c == '/' && i + 1 < n && src[i + 1] == '/') {
                state = State::LineComment;
                blank(i);
            } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
                state = State::BlockComment;
                blank(i);
            } else if (c == '"') {
                if (isRawStringPrefix(src, i)) {
                    rawDelim = ")";
                    std::size_t j = i + 1;
                    while (j < n && src[j] != '(')
                        rawDelim += src[j++];
                    rawDelim += '"';
                    state = State::Raw;
                } else {
                    state = State::Str;
                }
            } else if (c == '\'') {
                // `'` between two digits is a numeric separator
                // (1'000), not a character literal.
                const bool separator =
                    i > 0 && i + 1 < n &&
                    std::isdigit(static_cast<unsigned char>(src[i - 1])) &&
                    std::isdigit(static_cast<unsigned char>(src[i + 1]));
                if (!separator)
                    state = State::Chr;
            }
            break;
          case State::LineComment:
            if (c == '\n')
                state = State::Code;
            else
                blank(i);
            break;
          case State::BlockComment:
            if (c == '*' && i + 1 < n && src[i + 1] == '/') {
                blank(i);
                blank(i + 1);
                ++i;
                state = State::Code;
            } else {
                blank(i);
            }
            break;
          case State::Str:
            if (c == '\\' && i + 1 < n) {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '"' || c == '\n') {
                state = State::Code;
            } else {
                blank(i);
            }
            break;
          case State::Chr:
            if (c == '\\' && i + 1 < n) {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '\'' || c == '\n') {
                state = State::Code;
            } else {
                blank(i);
            }
            break;
          case State::Raw:
            if (c == ')' && src.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1; // land on the closing quote
                state = State::Code;
            } else {
                blank(i);
            }
            break;
        }
        ++i;
    }
    return out;
}

bool
lineAllowsRule(const std::string &rawLine, const std::string &rule)
{
    static const std::regex kAllow(R"(lint\s*:\s*allow\s*\(([^)]*)\))");
    auto begin = std::sregex_iterator(rawLine.begin(), rawLine.end(),
                                      kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::string list = (*it)[1].str();
        std::string token;
        for (std::size_t i = 0; i <= list.size(); ++i) {
            const char c = i < list.size() ? list[i] : ',';
            if (c == ',' || c == ' ' || c == '\t') {
                if (token == rule || token == "all")
                    return true;
                token.clear();
            } else {
                token += c;
            }
        }
    }
    return false;
}

SourceFile
SourceFile::parse(std::string path, std::string content)
{
    SourceFile f;
    std::replace(path.begin(), path.end(), '\\', '/');
    f.path = std::move(path);
    f.raw = std::move(content);
    f.stripped = stripCommentsAndStrings(f.raw);
    auto split = [](const std::string &s) {
        std::vector<std::string> lines;
        std::size_t start = 0;
        while (start <= s.size()) {
            const std::size_t nl = s.find('\n', start);
            if (nl == std::string::npos) {
                lines.push_back(s.substr(start));
                break;
            }
            lines.push_back(s.substr(start, nl - start));
            start = nl + 1;
        }
        return lines;
    };
    f.rawLines = split(f.raw);
    f.strippedLines = split(f.stripped);
    const auto dot = f.path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : f.path.substr(dot);
    f.isHeader = ext == ".hh" || ext == ".hpp" || ext == ".h";
    return f;
}

bool
SourceFile::under(const std::string &dir) const
{
    return path.compare(0, dir.size(), dir) == 0;
}

bool
SourceFile::isAnyOf(std::initializer_list<const char *> paths) const
{
    for (const char *p : paths)
        if (path == p)
            return true;
    return false;
}

namespace {

/** Helper: report every match of @p re in the stripped lines. */
void
forEachMatch(const SourceFile &f, const std::regex &re,
             const std::function<void(int line, const std::string &match)>
                 &emit)
{
    for (std::size_t li = 0; li < f.strippedLines.size(); ++li) {
        const std::string &line = f.strippedLines[li];
        auto begin = std::sregex_iterator(line.begin(), line.end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            emit(static_cast<int>(li) + 1, it->str());
    }
}

void
checkWallclockRng(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/") || f.under("src/support/"))
        return;
    static const std::regex kBad(
        R"(std\s*::\s*random_device|\bs?rand\s*\(|\btime\s*\(|\bclock\s*\()"
        R"(|\bsystem_clock\b|\bgetenv\b|\bgettimeofday\b)");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "no-wallclock-rng",
                       "'" + m +
                           "' breaks bit-identical Far-BE reuse; use "
                           "support/rng (seeded) or move it under "
                           "src/support/"});
    });
}

void
checkRawThread(const SourceFile &f, std::vector<Finding> &out)
{
    if (f.isAnyOf({"src/support/parallel.hh", "src/support/parallel.cc"}))
        return;
    static const std::regex kBad(
        R"(std\s*::\s*thread\b(?!\s*::)|std\s*::\s*jthread\b)"
        R"(|std\s*::\s*async\b|\.detach\s*\(|\bpthread_create\b)");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "no-raw-thread",
                       "'" + m +
                           "' bypasses the shared pool; all parallelism "
                           "must go through support/parallel "
                           "(deterministic chunking, no thread leaks)"});
    });
}

void
checkUsingNamespaceHeader(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.isHeader)
        return;
    static const std::regex kBad(R"(^\s*using\s+namespace\b)");
    forEachMatch(f, kBad, [&](int line, const std::string &) {
        out.push_back({f.path, line, "no-using-namespace-header",
                       "'using namespace' in a header leaks into every "
                       "includer; qualify or alias instead"});
    });
}

void
checkPragmaOnce(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.isHeader)
        return;
    static const std::regex kPragma(R"(^\s*#\s*pragma\s+once\b)");
    for (const std::string &line : f.strippedLines)
        if (std::regex_search(line, kPragma))
            return;
    out.push_back({f.path, 1, "pragma-once",
                   "header is missing '#pragma once' (project headers "
                   "use it instead of include guards)"});
}

void
checkConsoleIo(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    if (f.isAnyOf({"src/support/logging.hh", "src/support/logging.cc"}))
        return;
    static const std::regex kBad(
        R"(std\s*::\s*(cout|cerr|clog)\b|\b(printf|puts|putchar)\s*\()"
        R"(|\bfprintf\s*\(\s*(stdout|stderr)\b)");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "no-direct-console-io",
                       "'" + m +
                           "' writes to the console directly; use the "
                           "support/logging macros (COTERIE_INFORM/"
                           "WARN/...) so verbosity stays controllable"});
    });
}

void
checkAmbientClock(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    // The one sanctioned wall-clock access point (see obs/clock.hh).
    if (f.isAnyOf({"src/obs/clock.hh", "src/obs/clock.cc"}))
        return;
    static const std::regex kBad(
        R"(\bchrono\s*::\s*\w+_clock\b|\bsteady_clock\b)"
        R"(|\bhigh_resolution_clock\b|\bsystem_clock\b|\btime\s*\()");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "ambient-clock",
                       "'" + m +
                           "' reads ambient time outside obs/clock; "
                           "wall-clock access in src/ is confined to "
                           "src/obs/clock.{hh,cc} (telemetry is "
                           "observe-only, simulation uses sim time)"});
    });
}

void
checkEpochGuardedSchedule(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    const std::string &s = f.stripped;
    static const std::regex kCall(R"(\bschedule(?:In|At)\s*\()");
    static const std::regex kThis(R"(\bthis\b)");
    static const std::regex kGuard(
        R"(==|!=|\.\s*find\s*\(|\.\s*count\s*\(|->\s*find\s*\(|->\s*count\s*\()");
    for (auto it = std::sregex_iterator(s.begin(), s.end(), kCall);
         it != std::sregex_iterator(); ++it) {
        const auto callPos = static_cast<std::size_t>(it->position());
        // The lambda's capture list must open inside this call's
        // argument list; a ';' first means we matched a declaration.
        std::size_t open = std::string::npos;
        for (std::size_t i = callPos; i < s.size(); ++i) {
            if (s[i] == '[') {
                open = i;
                break;
            }
            if (s[i] == ';')
                break;
        }
        if (open == std::string::npos)
            continue;
        const std::size_t close = s.find(']', open);
        if (close == std::string::npos)
            continue;
        // Only explicit `this` captures are in scope: the scheduled
        // callback outlives the current turn, so the object may be
        // torn down or repointed before it fires.
        const std::string captures =
            s.substr(open + 1, close - open - 1);
        if (!std::regex_search(captures, kThis))
            continue;
        // Extract the balanced-brace lambda body and look for the
        // revalidation the epoch-guard pattern requires: an epoch or
        // generation comparison, or a membership lookup that makes a
        // stale wake-up a no-op (channel.cc is the reference).
        const std::size_t bodyOpen = s.find('{', close);
        if (bodyOpen == std::string::npos)
            continue;
        int depth = 0;
        std::size_t bodyEnd = bodyOpen;
        for (; bodyEnd < s.size(); ++bodyEnd) {
            if (s[bodyEnd] == '{')
                ++depth;
            else if (s[bodyEnd] == '}' && --depth == 0)
                break;
        }
        const std::string body =
            s.substr(bodyOpen, bodyEnd - bodyOpen + 1);
        if (std::regex_search(body, kGuard))
            continue;
        const int line =
            1 + static_cast<int>(std::count(
                    s.begin(),
                    s.begin() + static_cast<std::ptrdiff_t>(callPos),
                    '\n'));
        out.push_back(
            {f.path, line, "epoch-guarded-schedule",
             "scheduleIn/scheduleAt lambda captures `this` without "
             "revalidating on wake; compare an epoch/generation or "
             "re-look-up membership before touching members (the "
             "epoch-guard pattern in net/channel.cc), or justify with "
             "a lint:allow if the callee revalidates"});
    }
}

void
checkUnboundedQueue(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    // Queue-shaped members: every std::deque, plus std::vectors whose
    // name says queue. A producer/consumer imbalance turns these into
    // silent memory leaks, so each one must carry a nearby comment
    // documenting what bounds it (or a lint:allow with justification).
    static const std::regex kDeque(
        R"(\bstd\s*::\s*deque\s*<[^;]*>\s*\w+)");
    static const std::regex kVecQueue(
        R"(\bstd\s*::\s*vector\s*<[^;=(]*>\s*\w*)"
        R"((?:[Qq]ueue|[Ff]ifo|[Pp]ending|[Bb]acklog|[Ii]nbox)\w*\s*)"
        R"((?:;|COTERIE_GUARDED_BY))");
    static const std::regex kCapDoc(
        R"([Cc]ap(?:ped|s)?\b|[Bb]ound(?:ed)?\b|[Ll]imit|[Bb]udget)"
        R"(|[Rr]ing\b|[Ff]ixed[- ]size|[Dd]rops? the\b)");
    for (std::size_t li = 0; li < f.strippedLines.size(); ++li) {
        const std::string &line = f.strippedLines[li];
        if (!std::regex_search(line, kDeque) &&
            !std::regex_search(line, kVecQueue))
            continue;
        // The cap must be documented where the member lives: on the
        // declaration line itself or in the contiguous comment block
        // directly above it.
        std::string doc = li < f.rawLines.size() ? f.rawLines[li] : line;
        for (std::size_t k = li; k-- > 0;) {
            const std::string &raw = f.rawLines[k];
            const std::size_t text = raw.find_first_not_of(" \t");
            if (text == std::string::npos)
                break;
            if (raw.compare(text, 2, "//") != 0 &&
                raw.compare(text, 2, "/*") != 0 &&
                raw.compare(text, 1, "*") != 0)
                break;
            doc += '\n';
            doc += raw;
        }
        if (std::regex_search(doc, kCapDoc))
            continue;
        out.push_back(
            {f.path, static_cast<int>(li) + 1, "unbounded-queue",
             "queue-shaped member with no documented growth cap; state "
             "what bounds it in the adjacent comment (count limit, "
             "byte budget, drained-per-event invariant, ...) or "
             "justify with a lint:allow(unbounded-queue)"});
    }
}

void
checkMutexGuardedBy(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    static const std::regex kDecl(
        R"(\b(?:std\s*::\s*(?:recursive_|shared_|timed_|recursive_timed_)?mutex|(?:support\s*::\s*)?Mutex)\s+(\w+)\s*[;{])");
    const bool hasAnnotations =
        f.stripped.find("GUARDED_BY") != std::string::npos;
    if (hasAnnotations)
        return;
    for (std::size_t li = 0; li < f.strippedLines.size(); ++li) {
        const std::string &line = f.strippedLines[li];
        std::smatch m;
        if (std::regex_search(line, m, kDecl)) {
            out.push_back(
                {f.path, static_cast<int>(li) + 1, "mutex-guarded-by",
                 "mutex member '" + m[1].str() +
                     "' with no GUARDED_BY annotation in this file; "
                     "annotate the data it protects "
                     "(support/thread_annotations.hh)"});
        }
    }
}

/**
 * Determinism taint: iterating an unordered container keyed on a
 * pointer visits elements in address order, which differs run to run
 * (ASLR, allocation order). Token-based so multi-line declarations
 * and nested template arguments resolve correctly.
 */
void
checkPtrKeyedContainer(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    if (f.stripped.find("unordered_") == std::string::npos)
        return;
    const TokenStream ts = tokenize(f.raw);
    const auto &T = ts.tokens;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (T[i].kind != Tok::Ident)
            continue;
        const std::string &name = T[i].text;
        if (name != "unordered_map" && name != "unordered_set" &&
            name != "unordered_multimap" &&
            name != "unordered_multiset")
            continue;
        if (T[i + 1].text != "<")
            continue;
        // Scan the *key* type: up to the first top-level ',' (maps)
        // or the closing '>' (sets).
        int depth = 0;
        bool ptrKey = false;
        for (std::size_t j = i + 1; j < T.size(); ++j) {
            const std::string &x = T[j].text;
            if (T[j].kind != Tok::Punct)
                continue;
            if (x == "<" || x == "(")
                ++depth;
            else if (x == ">" || x == ")") {
                if (--depth == 0)
                    break;
            } else if (x == "," && depth == 1) {
                break;
            } else if (x == "*" && depth == 1) {
                ptrKey = true;
            }
        }
        if (ptrKey)
            out.push_back(
                {f.path, T[i].line, "ptr-keyed-container",
                 "'" + name +
                     "' keyed on a pointer iterates in address order, "
                     "which varies run to run; key on a stable id, or "
                     "lint:allow if iteration order provably never "
                     "reaches an output"});
    }
}

/**
 * Determinism taint: deriving an integer from an object address
 * (reinterpret_cast to uintptr_t) or hashing a pointer feeds ASLR
 * entropy into whatever consumes the value.
 */
void
checkAddressOrdering(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/"))
        return;
    static const std::regex kBad(
        R"(reinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\s*>)"
        R"(|\bhash\s*<\s*[\w:\s]*\*\s*>)");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "address-ordering",
                       "'" + m +
                           "' derives a value from an object address; "
                           "addresses change across runs (ASLR, "
                           "allocator), so any ordering or hash built "
                           "on them is nondeterministic"});
    });
}

/**
 * Determinism taint: std <random> engines and shuffles outside
 * support/ bypass the seeded support/rng streams the determinism
 * tests rely on.
 */
void
checkAmbientRng(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/") || f.under("src/support/"))
        return;
    static const std::regex kBad(
        R"(\bmt19937(?:_64)?\b|\bdefault_random_engine\b)"
        R"(|\bminstd_rand0?\b|\branlux\w+\b|\bknuth_b\b)"
        R"(|\brandom_shuffle\s*\(|\bshuffle\s*\()");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back({f.path, line, "ambient-rng",
                       "'" + m +
                           "' is randomness outside support/rng; all "
                           "stochastic behaviour in src/ must flow "
                           "through the seeded, stream-split "
                           "support/rng so runs replay bit-identically"});
    });
}

/**
 * FP-contraction discipline (DESIGN.md §10): a COTERIE_SIMD_CLONES
 * kernel is compiled per-ISA, so any libm transcendental inside the
 * cloned body may round differently between clones and break the
 * bit-identical contract. Exactly-rounded IEEE ops (sqrt, fabs,
 * floor, fmin/fmax, ...) are fine; the flagged set is the
 * implementation-defined tail.
 */
void
checkSimdAmbientMath(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/") ||
        f.isAnyOf({"src/support/simd.hh"}))
        return;
    if (f.stripped.find("CLONES") == std::string::npos)
        return;
    static const std::set<std::string> kAmbient = [] {
        std::set<std::string> s;
        for (const char *base :
             {"sin", "cos", "tan", "asin", "acos", "atan", "atan2",
              "sinh", "cosh", "tanh", "exp", "exp2", "expm1", "log",
              "log2", "log10", "log1p", "pow", "cbrt", "hypot",
              "fmod", "remainder", "erf", "erfc", "tgamma",
              "lgamma"}) {
            s.insert(base);
            s.insert(std::string(base) + "f");
            s.insert(std::string(base) + "l");
        }
        return s;
    }();

    const TokenStream ts = tokenize(f.raw);
    const auto &T = ts.tokens;
    std::set<int> defineLines;
    for (const Directive &d : ts.directives)
        if (d.name == "define")
            defineLines.insert(d.line);

    auto isCloneMarker = [](const std::string &t) {
        return t.size() > 6 &&
               t.compare(0, 8, "COTERIE_") == 0 &&
               t.compare(t.size() - 6, 6, "CLONES") == 0;
    };

    for (std::size_t i = 0; i < T.size(); ++i) {
        if (T[i].kind != Tok::Ident || !isCloneMarker(T[i].text))
            continue;
        // Markers inside #define lines are aliases, not kernels.
        if (defineLines.count(T[i].line))
            continue;
        // Find the kernel body: the next top-level '{' ... matching '}'.
        std::size_t j = i + 1;
        while (j < T.size() && T[j].text != "{" && T[j].text != ";")
            ++j;
        if (j >= T.size() || T[j].text == ";")
            continue;
        int depth = 0;
        for (; j < T.size(); ++j) {
            if (T[j].kind == Tok::Punct) {
                if (T[j].text == "{")
                    ++depth;
                else if (T[j].text == "}" && --depth == 0)
                    break;
                continue;
            }
            if (T[j].kind == Tok::Ident && kAmbient.count(T[j].text) &&
                j + 1 < T.size() && T[j + 1].text == "(")
                out.push_back(
                    {f.path, T[j].line, "simd-ambient-math",
                     "'" + T[j].text +
                         "(' inside a COTERIE_SIMD_CLONES kernel: "
                         "libm transcendentals are not exactly "
                         "rounded, so per-ISA clones may diverge "
                         "bitwise; hoist the call out of the cloned "
                         "region or use an exact formulation"});
        }
    }
}

/**
 * Cross-lane hazard taint (DESIGN.md §12): under the parallel DES,
 * every component owns exactly one event lane — the `sim::EventQueue&`
 * it was constructed over. Scheduling into (or reading the clock of) a
 * queue reached through *another object's* accessor
 * (`other.queue().scheduleAt(...)`, `mgr.queue().now()`) crosses lane
 * ownership outside the deterministic barrier path: mid-round the
 * target heap is owned by a different thread, and even on one thread
 * the event bypasses the (lane id, posted time, sequence) drain order.
 * The legal routes are `postControl` (barrier-deferred control action)
 * or taking the queue by reference at construction so the object joins
 * that lane. Observe-only accessors (pending, executedEvents) are fine.
 */
void
checkCrossLane(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.under("src/") || f.under("src/sim/"))
        return; // the engine itself implements the merge API
    static const std::regex kBad(
        R"((?:\.|->)\s*queue\s*\(\s*\)\s*\.\s*)"
        R"((?:scheduleAt|scheduleIn|now)\s*\()");
    forEachMatch(f, kBad, [&](int line, const std::string &m) {
        out.push_back(
            {f.path, line, "cross-lane",
             "'" + m +
                 "' schedules into (or reads the clock of) a queue "
                 "owned by another component — a cross-lane hazard "
                 "under the parallel DES; route through postControl "
                 "or take the queue by reference at construction"});
    });
}

} // namespace

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = {
        {"no-wallclock-rng",
         "src/ outside support/ must not read wall clocks, ambient "
         "randomness, or the environment (std::random_device, rand, "
         "time, clock, system_clock, getenv)",
         checkWallclockRng},
        {"no-raw-thread",
         "no raw std::thread/std::jthread/std::async/.detach()/"
         "pthread_create outside support/parallel",
         checkRawThread},
        {"no-using-namespace-header",
         "headers must not contain 'using namespace'", //
         checkUsingNamespaceHeader},
        {"pragma-once",
         "every header starts with #pragma once", //
         checkPragmaOnce},
        {"no-direct-console-io",
         "src/ must log through support/logging, never printf/cout "
         "directly",
         checkConsoleIo},
        {"mutex-guarded-by",
         "every mutex member in src/ lives in a file that annotates "
         "the data it guards with GUARDED_BY",
         checkMutexGuardedBy},
        {"ambient-clock",
         "src/ must not read std::chrono clocks or time() outside "
         "src/obs/clock.{hh,cc} — the single wall-clock access point",
         checkAmbientClock},
        {"epoch-guarded-schedule",
         "a scheduleIn/scheduleAt lambda capturing `this` must "
         "revalidate on wake (epoch/generation compare or membership "
         "lookup) so stale events are no-ops",
         checkEpochGuardedSchedule},
        {"unbounded-queue",
         "every queue-shaped member (std::deque, queue-named vectors) "
         "in src/ documents what bounds its growth next to the "
         "declaration",
         checkUnboundedQueue},
        {"ptr-keyed-container",
         "no pointer-keyed unordered_map/unordered_set in src/ — "
         "iteration order is address order and varies run to run",
         checkPtrKeyedContainer},
        {"address-ordering",
         "no reinterpret_cast<uintptr_t> / std::hash<T*> in src/ — "
         "address-derived values feed ASLR entropy into results",
         checkAddressOrdering},
        {"ambient-rng",
         "no std <random> engines or shuffles outside support/ — "
         "stochastic behaviour must use the seeded support/rng",
         checkAmbientRng},
        {"simd-ambient-math",
         "no libm transcendentals inside COTERIE_SIMD_CLONES kernels "
         "— per-ISA clones may round them differently",
         checkSimdAmbientMath},
        {"cross-lane",
         "no scheduleAt/scheduleIn/now through another component's "
         "queue() accessor — cross-lane interaction must use the "
         "deterministic barrier API (postControl)",
         checkCrossLane},
    };
    return kRules;
}

std::vector<Finding>
checkSource(const std::string &path, const std::string &content,
            std::size_t *suppressed)
{
    const SourceFile f = SourceFile::parse(path, content);
    std::vector<Finding> all;
    for (const Rule &rule : rules())
        rule.check(f, all);

    std::vector<Finding> kept;
    std::size_t dropped = 0;
    for (Finding &finding : all) {
        const std::size_t li = static_cast<std::size_t>(finding.line) - 1;
        const bool allowed =
            (li < f.rawLines.size() &&
             lineAllowsRule(f.rawLines[li], finding.rule)) ||
            (li >= 1 && li - 1 < f.rawLines.size() &&
             lineAllowsRule(f.rawLines[li - 1], finding.rule));
        if (allowed)
            ++dropped;
        else
            kept.push_back(std::move(finding));
    }
    if (suppressed)
        *suppressed = dropped;

    std::stable_sort(kept.begin(), kept.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return kept;
}

} // namespace coterie::lint
