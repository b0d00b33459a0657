// wrpt_lint — the repo's own invariant checker.
//
// Enforces project rules no off-the-shelf tool knows, on top of a small
// scanner that understands C++ comments, string/char literals (including
// raw strings) and #include lines — so a rule never fires on prose or
// string contents, only on code:
//
//   dense-map     hot dirs (svc/, exec/, core/) use util/dense_map.h for
//                 integer-keyed tables, not std::unordered_map/std::map.
//   determinism   deterministic kernels (opt/, prob/, sim/) must not
//                 call rand()/srand(), use std::random_device or
//                 system_clock, or iterate an unordered container
//                 (iteration order would leak into results; lookup-only
//                 unordered maps are fine).
//   blocking-io   raw blocking ::send(/::recv(/::connect( calls live
//                 only in svc/socket.cpp — everything above speaks the
//                 stream/listener wrappers (the reactor requires
//                 non-blocking I/O throughout).
//   raw-mutex     synchronization primitives come from util/sync.h
//                 (wrpt::mutex & friends carry the thread-safety
//                 annotations); raw std::mutex/locks/condition_variable
//                 and their headers are forbidden elsewhere.
//   raw-thread    src/ and tools/ run work on a caller's exec::thread_pool:
//                 a std::thread/std::jthread object appears only in
//                 exec/thread_pool.* and svc/server.* (the reactor), and
//                 no thread_pool is static (a process-wide pool runs
//                 threads no option sizes).
//                 std::thread::hardware_concurrency() stays allowed.
//
// Escape hatch: `// wrpt-lint: allow(<rule>[,<rule>...])` on the same
// line, or on an immediately preceding comment-only line, suppresses the
// named rule(s) there — pair it with a reason, reviewers read it.
//
// Usage:  wrpt_lint [--list-rules] [--stats] <path>...
// Paths may be files or directories (recursed over .h/.hpp/.cpp/.cc).
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
//
// Directory recursion prunes the linter's own violation corpus (paths
// containing both a `lint` and a `fixtures` component), so the repo-wide
// scan stays clean while the fixtures stay deliberately dirty; the
// fixture test driver runs from tests/lint/fixtures with relative paths,
// which dodges the prune.
//
// Dependency-free by design (standard library only): it builds and runs
// before anything else in the tree does, on any toolchain CI throws at
// it, and its own fixtures (tests/lint/) pin the diagnostics as goldens.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// --- rule table -------------------------------------------------------------

struct rule_info {
    const char* name;
    const char* summary;
};

constexpr rule_info kRules[] = {
    {"dense-map",
     "hot dirs (svc/, exec/, core/) use util/dense_map.h, not "
     "std::unordered_map/std::map"},
    {"determinism",
     "deterministic kernels (opt/, prob/, sim/) must not call rand/srand, "
     "use std::random_device/system_clock, or iterate unordered containers"},
    {"blocking-io",
     "raw blocking ::send(/::recv(/::connect( only inside svc/socket.cpp"},
    {"raw-mutex",
     "synchronization primitives come from util/sync.h, not raw std::mutex "
     "and friends"},
    {"raw-thread",
     "std::thread/std::jthread objects in src/ and tools/ only inside "
     "exec/thread_pool.* and svc/server.*, and no static thread_pool"},
};

constexpr std::size_t kRuleCount = sizeof(kRules) / sizeof(kRules[0]);

struct violation {
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

// --- source scanner ---------------------------------------------------------

/// One source line split into what the compiler sees (`code`, with
/// string/char literal contents blanked to spaces) and what the reader
/// sees (`comment`, the concatenated comment text).
struct scanned_line {
    std::string code;
    std::string comment;
};

bool is_ident(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/// Split a translation unit into per-line code/comment channels. Tracks
/// line comments, block comments (multi-line), "..." and '...' literals
/// with escapes, and R"delim(...)delim" raw strings, so rule matching
/// never fires inside a literal or a comment.
std::vector<scanned_line> scan_source(const std::string& text) {
    std::vector<scanned_line> lines(1);
    enum class st { code, line_comment, block_comment, dquote, squote, raw };
    st state = st::code;
    std::string raw_close;  // )delim" of the active raw string
    const std::size_t n = text.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = text[i];
        if (c == '\n') {
            if (state == st::line_comment) state = st::code;
            // Unterminated quote at end of line: recover rather than
            // poison the rest of the file (the compiler errors anyway).
            if (state == st::dquote || state == st::squote) state = st::code;
            lines.emplace_back();
            continue;
        }
        scanned_line& out = lines.back();
        switch (state) {
            case st::code:
                if (c == '/' && i + 1 < n && text[i + 1] == '/') {
                    state = st::line_comment;
                    ++i;
                } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
                    state = st::block_comment;
                    ++i;
                } else if (c == '"') {
                    if (i > 0 && text[i - 1] == 'R') {
                        // R"delim( — find the delimiter, remember )delim"
                        std::size_t j = i + 1;
                        while (j < n && text[j] != '(') ++j;
                        raw_close =
                            ")" + text.substr(i + 1, j - i - 1) + "\"";
                        state = st::raw;
                        out.code += '"';
                        i = j;  // skip past the opening '('
                    } else {
                        state = st::dquote;
                        out.code += '"';
                    }
                } else if (c == '\'') {
                    // Only a char literal when not a digit separator
                    // (1'000'000) — separators sit between digits.
                    const bool separator =
                        i > 0 && is_ident(text[i - 1]) && i + 1 < n &&
                        is_ident(text[i + 1]);
                    if (!separator) state = st::squote;
                    out.code += '\'';
                } else {
                    out.code += c;
                }
                break;
            case st::line_comment:
                out.comment += c;
                break;
            case st::block_comment:
                if (c == '*' && i + 1 < n && text[i + 1] == '/') {
                    state = st::code;
                    ++i;
                } else {
                    out.comment += c;
                }
                break;
            case st::dquote:
                if (c == '\\' && i + 1 < n) {
                    ++i;
                    out.code += "  ";
                } else if (c == '"') {
                    state = st::code;
                    out.code += '"';
                } else {
                    out.code += ' ';
                }
                break;
            case st::squote:
                if (c == '\\' && i + 1 < n) {
                    ++i;
                    out.code += "  ";
                } else if (c == '\'') {
                    state = st::code;
                    out.code += '\'';
                } else {
                    out.code += ' ';
                }
                break;
            case st::raw:
                if (c == ')' &&
                    text.compare(i, raw_close.size(), raw_close) == 0) {
                    i += raw_close.size() - 1;
                    state = st::code;
                    out.code += '"';
                } else {
                    out.code += ' ';
                }
                break;
        }
    }
    return lines;
}

// --- allow directives -------------------------------------------------------

/// Rules suppressed on each line: `wrpt-lint: allow(a,b)` in a comment
/// applies to its own line; a comment-only line extends its allows to
/// the next line.
std::vector<std::set<std::string>> collect_allows(
    const std::vector<scanned_line>& lines) {
    std::vector<std::set<std::string>> allows(lines.size());
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& c = lines[li].comment;
        std::size_t pos = 0;
        while ((pos = c.find("wrpt-lint:", pos)) != std::string::npos) {
            pos += 10;
            const std::size_t open = c.find("allow(", pos);
            if (open == std::string::npos) break;
            const std::size_t close = c.find(')', open);
            if (close == std::string::npos) break;
            std::string list = c.substr(open + 6, close - open - 6);
            std::string name;
            std::stringstream ss(list);
            while (std::getline(ss, name, ',')) {
                const std::size_t b = name.find_first_not_of(" \t");
                const std::size_t e = name.find_last_not_of(" \t");
                if (b != std::string::npos)
                    allows[li].insert(name.substr(b, e - b + 1));
            }
            pos = close;
        }
    }
    return allows;
}

bool line_is_comment_only(const scanned_line& l) {
    return l.code.find_first_not_of(" \t") == std::string::npos;
}

// --- path scoping -----------------------------------------------------------

std::vector<std::string> path_components(const std::string& path) {
    std::vector<std::string> comps;
    for (const auto& part : fs::path(path))
        if (part != "." && part != "/" && !part.empty())
            comps.push_back(part.string());
    return comps;
}

bool has_component(const std::vector<std::string>& comps,
                   const std::string& name) {
    return std::find(comps.begin(), comps.end(), name) != comps.end();
}

bool ends_with(const std::vector<std::string>& comps, const char* dir,
               const char* file) {
    return comps.size() >= 2 && comps[comps.size() - 2] == dir &&
           comps.back() == file;
}

/// `dir/stem.<any extension>`: a header and its source as one unit.
bool is_unit(const std::vector<std::string>& comps, const char* dir,
             const char* stem) {
    return comps.size() >= 2 && comps[comps.size() - 2] == dir &&
           fs::path(comps.back()).stem() == stem;
}

// --- token matching ---------------------------------------------------------

/// Occurrences of `token` in `code` with identifier boundaries on both
/// sides. `qualified_ok`: also accept a ':' immediately before (so
/// "system_clock" matches inside std::chrono::system_clock).
std::vector<std::size_t> find_token(const std::string& code,
                                    const std::string& token,
                                    bool qualified_ok = false) {
    std::vector<std::size_t> hits;
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
        const bool left_ok =
            pos == 0 ||
            (!is_ident(code[pos - 1]) &&
             (qualified_ok || code[pos - 1] != ':'));
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= code.size() || !is_ident(code[end]);
        if (left_ok && right_ok) hits.push_back(pos);
        pos = end;
    }
    return hits;
}

std::size_t next_nonspace(const std::string& s, std::size_t i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    return i;
}

/// Index of the last non-space char before `i`, or npos.
std::size_t prev_nonspace(const std::string& s, std::size_t i) {
    while (i > 0) {
        --i;
        if (s[i] != ' ' && s[i] != '\t') return i;
    }
    return std::string::npos;
}

// --- per-rule checks --------------------------------------------------------

void check_dense_map(const std::string& path,
                     const std::vector<scanned_line>& lines,
                     std::vector<violation>& out) {
    for (std::size_t li = 0; li < lines.size(); ++li) {
        for (const char* t : {"std::unordered_map", "std::map"}) {
            if (!find_token(lines[li].code, t).empty())
                out.push_back({path, li + 1, "dense-map",
                               std::string(t) +
                                   " in a hot dir: use util/dense_map.h "
                                   "for integer keys, or allow(dense-map) "
                                   "with a reason"});
        }
    }
}

/// Best-effort extraction of names declared as unordered containers in
/// this file: after `std::unordered_(map|set)` skip balanced <...>
/// template args, then take the next identifier.
std::set<std::string> unordered_names(const std::vector<scanned_line>& lines) {
    std::set<std::string> names;
    for (const scanned_line& l : lines) {
        for (const char* t : {"std::unordered_map", "std::unordered_set"}) {
            for (std::size_t pos : find_token(l.code, t)) {
                std::size_t i = pos + std::string(t).size();
                i = next_nonspace(l.code, i);
                if (i < l.code.size() && l.code[i] == '<') {
                    int depth = 0;
                    for (; i < l.code.size(); ++i) {
                        if (l.code[i] == '<') ++depth;
                        if (l.code[i] == '>' && --depth == 0) {
                            ++i;
                            break;
                        }
                    }
                }
                i = next_nonspace(l.code, i);
                while (i < l.code.size() &&
                       (l.code[i] == '&' || l.code[i] == '*'))
                    i = next_nonspace(l.code, i + 1);
                std::size_t b = i;
                while (i < l.code.size() && is_ident(l.code[i])) ++i;
                if (i > b) names.insert(l.code.substr(b, i - b));
            }
        }
    }
    return names;
}

void check_determinism(const std::string& path,
                       const std::vector<scanned_line>& lines,
                       std::vector<violation>& out) {
    const std::set<std::string> unordered = unordered_names(lines);
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        // Nondeterministic sources: wall clocks and unseeded entropy.
        for (const char* t : {"random_device", "system_clock"}) {
            if (!find_token(code, t, /*qualified_ok=*/true).empty())
                out.push_back({path, li + 1, "determinism",
                               std::string(t) +
                                   " in a deterministic kernel: results "
                                   "must not depend on time or entropy"});
        }
        for (const char* t : {"rand", "srand"}) {
            for (std::size_t pos : find_token(code, t,
                                              /*qualified_ok=*/true)) {
                const std::size_t after =
                    next_nonspace(code, pos + std::string(t).size());
                if (after >= code.size() || code[after] != '(') continue;
                const std::size_t prev = prev_nonspace(code, pos);
                if (prev != std::string::npos &&
                    (code[prev] == '.' ||
                     (code[prev] == '>' && prev > 0 &&
                      code[prev - 1] == '-')))
                    continue;  // member call on some generator object
                if (prev != std::string::npos && is_ident(code[prev])) {
                    // Previous token is a word: a declaration of a member
                    // named rand (`std::uint64_t rand()`) unless it is a
                    // statement keyword (`return rand()`).
                    static const std::set<std::string> call_context = {
                        "return", "co_return", "case",    "else",
                        "do",     "throw",     "co_yield"};
                    std::size_t b = prev;
                    while (b > 0 && is_ident(code[b - 1])) --b;
                    if (call_context.count(code.substr(b, prev - b + 1)) ==
                        0)
                        continue;
                }
                out.push_back({path, li + 1, "determinism",
                               std::string(t) +
                                   "() in a deterministic kernel: use a "
                                   "seeded generator"});
            }
        }
        // Unordered iteration: hash order would leak into results.
        for (const std::string& name : unordered) {
            for (const char* m : {".begin(", ".cbegin(", ".rbegin("}) {
                std::size_t pos = 0;
                const std::string probe = name + m;
                while ((pos = code.find(probe, pos)) != std::string::npos) {
                    if (pos == 0 || !is_ident(code[pos - 1]))
                        out.push_back(
                            {path, li + 1, "determinism",
                             "iteration over unordered container '" + name +
                                 "' in a deterministic kernel"});
                    pos += probe.size();
                }
            }
            // Range-for: `for (... : name)`.
            for (std::size_t pos : find_token(code, name)) {
                const std::size_t prev = prev_nonspace(code, pos);
                if (prev == std::string::npos || code[prev] != ':') continue;
                if (prev > 0 && code[prev - 1] == ':') continue;  // ::name
                const std::size_t after =
                    next_nonspace(code, pos + name.size());
                if (after < code.size() && code[after] == ')')
                    out.push_back(
                        {path, li + 1, "determinism",
                         "iteration over unordered container '" + name +
                             "' in a deterministic kernel"});
            }
        }
    }
}

void check_blocking_io(const std::string& path,
                       const std::vector<scanned_line>& lines,
                       std::vector<violation>& out) {
    // Tokens after which an identifier + '(' is a *call*, not a
    // declaration (`void send(...)` declares; `return send(...)` calls).
    static const std::set<std::string> call_context = {
        "return", "co_return", "case", "else", "do", "throw", "co_yield"};
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        for (const char* t : {"send", "recv", "connect"}) {
            for (std::size_t pos : find_token(code, t,
                                              /*qualified_ok=*/true)) {
                const std::size_t after =
                    next_nonspace(code, pos + std::string(t).size());
                if (after >= code.size() || code[after] != '(') continue;
                const std::size_t prev = prev_nonspace(code, pos);
                if (prev == std::string::npos) continue;  // line start: decl
                const char p = code[prev];
                if (p == '.' || (p == '>' && prev > 0 &&
                                 code[prev - 1] == '-'))
                    continue;  // member call on a wrapper object
                if (p == ':' && prev > 0 && code[prev - 1] == ':') {
                    // Qualified: `client::send(` (qualifier adjacent to
                    // the ::) defines/calls a member; `::send(` — bare or
                    // after a space — is the libc symbol.
                    if (prev >= 2 && is_ident(code[prev - 2])) continue;
                } else if (is_ident(p)) {
                    // Previous token is a word: declaration (`void send(`)
                    // unless it is a statement keyword (`return send(`).
                    std::size_t b = prev;
                    while (b > 0 && is_ident(code[b - 1])) --b;
                    if (call_context.count(code.substr(b, prev - b + 1)) ==
                        0)
                        continue;
                }
                out.push_back({path, li + 1, "blocking-io",
                               std::string("blocking ") + t +
                                   "() call outside svc/socket.cpp: go "
                                   "through the stream/listener wrappers"});
            }
        }
    }
}

void check_raw_mutex(const std::string& path,
                     const std::vector<scanned_line>& lines,
                     std::vector<violation>& out) {
    static const char* kTypes[] = {
        "std::mutex",          "std::shared_mutex",
        "std::recursive_mutex", "std::timed_mutex",
        "std::recursive_timed_mutex",
        "std::condition_variable", "std::condition_variable_any",
        "std::scoped_lock",    "std::lock_guard",
        "std::unique_lock",    "std::shared_lock"};
    static const char* kHeaders[] = {"<mutex>", "<shared_mutex>",
                                     "<condition_variable>"};
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        for (const char* t : kTypes) {
            if (!find_token(code, t).empty())
                out.push_back({path, li + 1, "raw-mutex",
                               std::string(t) +
                                   " outside util/sync.h: use the "
                                   "annotated wrpt:: wrappers"});
        }
        const std::size_t hash = next_nonspace(code, 0);
        if (hash < code.size() && code[hash] == '#' &&
            code.find("include", hash) != std::string::npos) {
            for (const char* h : kHeaders) {
                if (code.find(h) != std::string::npos)
                    out.push_back({path, li + 1, "raw-mutex",
                                   std::string("#include ") + h +
                                       " outside util/sync.h: include "
                                       "util/sync.h instead"});
            }
        }
    }
}

/// `owns_threads`: the unit may hold thread objects (the pool itself and
/// the server's reactor). A static pool is flagged everywhere.
void check_raw_thread(const std::string& path,
                      const std::vector<scanned_line>& lines,
                      bool owns_threads, std::vector<violation>& out) {
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        // A static declaration whose type names thread_pool: the text
        // from `static` up to the initializer, parameter list or `;`.
        for (std::size_t pos : find_token(code, "static")) {
            const std::size_t end = code.find_first_of("(;={", pos);
            const std::string decl = code.substr(pos, end - pos);
            if (find_token(decl, "thread_pool", true).empty()) continue;
            out.push_back({path, li + 1, "raw-thread",
                           "static thread_pool: a process-wide pool runs "
                           "threads no option sizes; run the work on the "
                           "caller's thread_pool"});
        }
        if (owns_threads) continue;
        for (const char* t : {"std::thread", "std::jthread"}) {
            for (std::size_t pos : find_token(code, t)) {
                // std::thread::hardware_concurrency() and std::thread::id
                // name no thread object.
                const std::size_t after =
                    next_nonspace(code, pos + std::string(t).size());
                if (after < code.size() && code[after] == ':') continue;
                out.push_back({path, li + 1, "raw-thread",
                               std::string(t) +
                                   " object outside exec/thread_pool and "
                                   "svc/server: run the work on the "
                                   "caller's thread_pool"});
            }
        }
    }
}

// --- driver -----------------------------------------------------------------

bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

struct lint_result {
    std::vector<violation> violations;
    std::size_t files_scanned = 0;
    std::size_t suppressed = 0;
};

bool lint_file(const std::string& path, lint_result& res) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::vector<scanned_line> lines = scan_source(buf.str());
    const std::vector<std::set<std::string>> allows = collect_allows(lines);
    const std::vector<std::string> comps = path_components(path);

    std::vector<violation> found;
    if ((has_component(comps, "svc") || has_component(comps, "exec") ||
         has_component(comps, "core")))
        check_dense_map(path, lines, found);
    if (has_component(comps, "opt") || has_component(comps, "prob") ||
        has_component(comps, "sim"))
        check_determinism(path, lines, found);
    if (!ends_with(comps, "svc", "socket.cpp"))
        check_blocking_io(path, lines, found);
    if (!ends_with(comps, "util", "sync.h"))
        check_raw_mutex(path, lines, found);
    if (has_component(comps, "src") || has_component(comps, "tools"))
        check_raw_thread(path, lines,
                         is_unit(comps, "exec", "thread_pool") ||
                             is_unit(comps, "svc", "server"),
                         found);

    for (violation& v : found) {
        const std::size_t li = v.line - 1;
        bool allowed = allows[li].count(v.rule) != 0;
        if (!allowed && li > 0 && line_is_comment_only(lines[li - 1]))
            allowed = allows[li - 1].count(v.rule) != 0;
        if (allowed)
            ++res.suppressed;
        else
            res.violations.push_back(std::move(v));
    }
    ++res.files_scanned;
    return true;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--list-rules] [--stats] <path>...\n"
                 "paths are files or directories (recursed over "
                 ".h/.hpp/.cpp/.cc)\n"
                 "exit: 0 clean, 1 violations, 2 usage/IO error\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool stats = false;
    bool list_rules = false;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stats") {
            stats = true;
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "wrpt_lint: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            roots.push_back(arg);
        }
    }
    if (list_rules) {
        for (const rule_info& r : kRules)
            std::printf("%-12s %s\n", r.name, r.summary);
        if (roots.empty()) return 0;
    }
    if (roots.empty()) return usage(argv[0]);

    // Expand directories, sort for deterministic diagnostics order.
    std::vector<std::string> files;
    for (const std::string& root : roots) {
        std::error_code ec;
        const fs::file_status st = fs::status(root, ec);
        if (ec || !fs::exists(st)) {
            std::fprintf(stderr, "wrpt_lint: cannot open '%s'\n",
                         root.c_str());
            return 2;
        }
        if (fs::is_directory(st)) {
            for (auto it = fs::recursive_directory_iterator(root, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it) {
                if (!it->is_regular_file() || !lintable(it->path()))
                    continue;
                const std::string p = it->path().generic_string();
                const std::vector<std::string> comps = path_components(p);
                if (has_component(comps, "fixtures") &&
                    has_component(comps, "lint"))
                    continue;  // the deliberately-dirty violation corpus
                files.push_back(p);
            }
        } else {
            files.push_back(fs::path(root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    lint_result res;
    for (const std::string& f : files) {
        if (!lint_file(f, res)) {
            std::fprintf(stderr, "wrpt_lint: cannot read '%s'\n", f.c_str());
            return 2;
        }
    }
    std::stable_sort(res.violations.begin(), res.violations.end(),
                     [](const violation& a, const violation& b) {
                         if (a.path != b.path) return a.path < b.path;
                         return a.line < b.line;
                     });
    for (const violation& v : res.violations)
        std::printf("%s:%zu: [%s] %s\n", v.path.c_str(), v.line,
                    v.rule.c_str(), v.message.c_str());
    if (stats) {
        // Markdown-friendly: CI appends this to the job summary.
        std::printf("### wrpt_lint\n");
        std::printf("| metric | value |\n| --- | --- |\n");
        std::printf("| rules | %zu |\n", kRuleCount);
        std::printf("| files scanned | %zu |\n", res.files_scanned);
        std::printf("| violations | %zu |\n", res.violations.size());
        std::printf("| suppressions | %zu |\n", res.suppressed);
        std::printf("| status | %s |\n",
                    res.violations.empty() ? "clean" : "FAIL");
    }
    return res.violations.empty() ? 0 : 1;
}
