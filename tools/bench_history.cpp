// bench_history: compare two bench-result JSON documents (or two
// results/ directories) metric by metric.
//
// Usage:
//   bench_history [options] <baseline.json> <candidate.json>
//   bench_history [options] <baseline_dir> <candidate_dir>
//
// Options:
//   --threshold F   allowed fractional regression before failing
//                   (default 0.10 = 10%)
//   --only SUBSTR   restrict the comparison to metric paths containing
//                   SUBSTR (repeatable)
//
// Every numeric leaf is flattened to a '/'-joined path and compared.
// Direction is inferred from the metric name: timings (`*_ms`, `*_s`,
// `*_ns`) and work counts (`*_per_ray`, `*_per_search`) regress when
// they grow, rates
// and ratios (`*speedup*`, `*_per_s`, `*hit_ratio*`, `*fps*`) regress
// when they shrink; metrics with no recognizable direction are
// reported but never gate. In directory mode, `BENCH_*.json` files
// present in both directories are compared pairwise (files present on
// one side only are noted).
//
// Exit status: 0 = no regression beyond the threshold, 1 = at least
// one gated metric regressed, 2 = usage/IO error or nothing to compare
// (no metric present in both documents survives the --only filters).
// This is the CI perf-smoke gate: a regression fails with a named
// metric instead of silently drifting the tracked trajectory, and a
// filter that matches nothing fails instead of passing vacuously.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace {

namespace fs = std::filesystem;
using coterie::obs::Json;

std::string
readFile(const std::string &path, bool &ok)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ok = false;
        return {};
    }
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof buf, f);
        if (n == 0)
            break;
        text.append(buf, n);
    }
    ok = std::ferror(f) == 0;
    std::fclose(f);
    return text;
}

/** Flatten every numeric leaf into path -> value. */
void
flatten(const Json &node, const std::string &prefix,
        std::map<std::string, double> &out)
{
    if (node.isNumber()) {
        out[prefix] = node.asNumber();
    } else if (node.isObject()) {
        for (const auto &[key, value] : node.members())
            flatten(value,
                    prefix.empty() ? key : prefix + "/" + key, out);
    } else if (node.isArray()) {
        std::size_t i = 0;
        for (const Json &value : node.items())
            flatten(value, prefix + "/" + std::to_string(i++), out);
    }
}

/** Which way is better for this metric path? */
enum class Direction { LowerBetter, HigherBetter, Unknown };

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n &&
           s.compare(s.size() - n, n, suffix) == 0;
}

Direction
directionOf(const std::string &path)
{
    // Leaf name decides (paths are '/'-joined).
    const std::size_t slash = path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? path : path.substr(slash + 1);
    // Work counts first: "_per_search" would otherwise read as a rate.
    if (endsWith(leaf, "_per_ray") || endsWith(leaf, "_per_search"))
        return Direction::LowerBetter;
    if (leaf.find("speedup") != std::string::npos ||
        leaf.find("_per_s") != std::string::npos ||
        leaf.find("hit_ratio") != std::string::npos ||
        leaf.find("fps") != std::string::npos)
        return Direction::HigherBetter;
    if (endsWith(leaf, "_ms") || endsWith(leaf, "_s") ||
        endsWith(leaf, "_ns") || endsWith(leaf, "_us") ||
        leaf.find("_ms_") != std::string::npos ||
        endsWith(leaf, "_bytes") || endsWith(leaf, "_kb"))
        return Direction::LowerBetter;
    return Direction::Unknown;
}

struct CompareStats
{
    std::size_t compared = 0;
    std::size_t regressions = 0;
};

/** Compare two flattened metric maps; print deltas, count failures. */
void
compareDocs(const std::string &title,
            const std::map<std::string, double> &base,
            const std::map<std::string, double> &cand,
            double threshold, const std::vector<std::string> &only,
            CompareStats &stats)
{
    std::printf("== %s\n", title.c_str());
    std::printf("%-56s %14s %14s %9s  %s\n", "metric", "baseline",
                "candidate", "delta", "");
    for (const auto &[path, baseValue] : base) {
        if (!only.empty()) {
            bool match = false;
            for (const std::string &o : only)
                if (path.find(o) != std::string::npos) {
                    match = true;
                    break;
                }
            if (!match)
                continue;
        }
        const auto it = cand.find(path);
        if (it == cand.end()) {
            std::printf("%-56s %14.4f %14s\n", path.c_str(),
                        baseValue, "(gone)");
            continue;
        }
        const double candValue = it->second;
        ++stats.compared;
        const double delta = candValue - baseValue;
        const double rel =
            baseValue != 0.0 ? delta / baseValue : 0.0;
        const Direction dir = directionOf(path);
        bool regressed = false;
        if (baseValue != 0.0) {
            if (dir == Direction::LowerBetter && rel > threshold)
                regressed = true;
            if (dir == Direction::HigherBetter && rel < -threshold)
                regressed = true;
        }
        if (regressed)
            ++stats.regressions;
        std::printf("%-56s %14.4f %14.4f %+8.1f%%  %s\n",
                    path.c_str(), baseValue, candValue, 100.0 * rel,
                    regressed            ? "REGRESSION"
                    : dir == Direction::Unknown ? "(ungated)"
                                                : "");
    }
    for (const auto &[path, candValue] : cand) {
        if (base.count(path))
            continue;
        if (!only.empty()) {
            bool match = false;
            for (const std::string &o : only)
                if (path.find(o) != std::string::npos) {
                    match = true;
                    break;
                }
            if (!match)
                continue;
        }
        std::printf("%-56s %14s %14.4f  (new)\n", path.c_str(), "-",
                    candValue);
    }
}

bool
loadDoc(const std::string &path, std::map<std::string, double> &out)
{
    bool ok = true;
    const std::string text = readFile(path, ok);
    if (!ok) {
        std::fprintf(stderr, "bench_history: cannot read '%s'\n",
                     path.c_str());
        return false;
    }
    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty()) {
        std::fprintf(stderr,
                     "bench_history: parse error in '%s': %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    flatten(doc, "", out);
    return true;
}

/** BENCH_*.json file names under a directory (sorted). */
std::vector<std::string>
benchFiles(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            endsWith(name, ".json"))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    double threshold = 0.10;
    std::vector<std::string> only;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            threshold = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--only") == 0 &&
                   i + 1 < argc) {
            only.emplace_back(argv[++i]);
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: bench_history [--threshold F] "
                     "[--only SUBSTR] <baseline> <candidate>\n"
                     "       (two BENCH_*.json files or two results "
                     "directories)\n");
        return 2;
    }

    CompareStats stats;
    const bool dirMode =
        fs::is_directory(paths[0]) && fs::is_directory(paths[1]);
    if (dirMode) {
        const auto baseNames = benchFiles(paths[0]);
        const auto candNames = benchFiles(paths[1]);
        bool any = false;
        for (const std::string &name : baseNames) {
            if (std::find(candNames.begin(), candNames.end(), name) ==
                candNames.end()) {
                std::printf("-- %s only in %s\n", name.c_str(),
                            paths[0].c_str());
                continue;
            }
            std::map<std::string, double> base, cand;
            if (!loadDoc(paths[0] + "/" + name, base) ||
                !loadDoc(paths[1] + "/" + name, cand))
                return 2;
            compareDocs(name, base, cand, threshold, only, stats);
            any = true;
        }
        for (const std::string &name : candNames)
            if (std::find(baseNames.begin(), baseNames.end(), name) ==
                baseNames.end())
                std::printf("-- %s only in %s\n", name.c_str(),
                            paths[1].c_str());
        if (!any)
            std::printf("bench_history: no common BENCH_*.json "
                        "files\n");
    } else {
        std::map<std::string, double> base, cand;
        if (!loadDoc(paths[0], base) || !loadDoc(paths[1], cand))
            return 2;
        compareDocs(paths[0] + " -> " + paths[1], base, cand,
                    threshold, only, stats);
    }

    std::printf("\n%zu metrics compared, %zu regression%s beyond "
                "%.0f%%\n",
                stats.compared, stats.regressions,
                stats.regressions == 1 ? "" : "s", 100.0 * threshold);
    if (stats.compared == 0) {
        std::fprintf(stderr, "bench_history: no metric present in both "
                             "documents matched; nothing was gated\n");
        return 2;
    }
    return stats.regressions > 0 ? 1 : 0;
}
