/**
 * @file
 * Rule engine for roboshape_lint.  See lint.h and docs/STATIC_ANALYSIS.md.
 */

#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <filesystem>

#include "lint/lexer.h"
#include "obs/json.h"
#include "topology/diagnostics.h"

namespace roboshape {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Rule tables.  Function names are matched as identifier tokens followed by
// '(' so prose in comments and string literals never counts.

constexpr std::string_view kRuleRawParse = "banned-raw-parse";
constexpr std::string_view kRuleAllocWarm = "no-alloc-warm-path";
constexpr std::string_view kRuleJsonWriter = "json-writer-only";
constexpr std::string_view kRuleNondet = "no-nondeterminism";
constexpr std::string_view kRuleCounterSync = "counter-name-sync";
constexpr std::string_view kRuleEnvRaw = "banned-env-raw";
constexpr std::string_view kRuleUnusedSuppression = "unused-suppression";

/// Raw numeric parsers that silently accept "4abc" / "-1" / whitespace.
constexpr std::array<std::string_view, 23> kRawParseFns = {
    "stoi",     "stol",      "stoll",    "stoul",    "stoull", "stof",
    "stod",     "stold",     "strtol",   "strtoll",  "strtoul",
    "strtoull", "strtoimax", "strtoumax", "strtof",  "strtod", "strtold",
    "atoi",     "atol",      "atoll",    "atof",     "sscanf", "fscanf"};

/// Allocating calls banned inside `lint: warm-path` regions.  Note
/// `assign` is deliberately absent: assign/fill on a warm container is
/// the capacity-preserving idiom the engine uses on purpose.
constexpr std::array<std::string_view, 14> kAllocFns = {
    "malloc",       "calloc",      "realloc",  "aligned_alloc",
    "posix_memalign", "strdup",    "make_unique", "make_shared",
    "push_back",    "emplace_back", "emplace", "insert",
    "resize",       "reserve"};

/// printf-family sinks checked by json-writer-only.
constexpr std::array<std::string_view, 10> kPrintfFns = {
    "printf",  "fprintf",  "sprintf", "snprintf", "vprintf",
    "vfprintf", "vsprintf", "vsnprintf", "puts",  "fputs"};

/// Nondeterminism sources matched as calls (identifier + '(').
constexpr std::array<std::string_view, 11> kNondetCallFns = {
    "rand",  "srand",        "rand_r",       "drand48", "lrand48",
    "mrand48", "random",     "time",         "clock",   "gettimeofday",
    "clock_gettime"};

/// Nondeterminism sources matched as bare identifiers (types/members).
constexpr std::array<std::string_view, 4> kNondetTypes = {
    "random_device", "steady_clock", "system_clock",
    "high_resolution_clock"};

constexpr std::array<std::string_view, 2> kEnvFns = {"getenv",
                                                     "secure_getenv"};

constexpr std::string_view kWarmBegin = "lint: warm-path begin";
constexpr std::string_view kWarmEnd = "lint: warm-path end";

// ---------------------------------------------------------------------------
// Per-rule allowlists: the named invariant *implementations* are the only
// places allowed to use the raw construct.

bool
raw_parse_allowed(std::string_view path)
{
    // The strict parser itself, and the checked full-consumption
    // finite-only URDF number path built on strtod (docs/INGESTION.md).
    return path == "src/core/parse_uint.cc" ||
           path == "src/topology/urdf_parser.cc";
}

bool
json_writer_allowed(std::string_view path)
{
    return path == "src/obs/json.cc" || path == "src/obs/json.h";
}

bool
nondet_allowed(std::string_view path)
{
    // obs/ owns wall-clock tracing; bench/ measures wall time by design.
    return path.rfind("src/obs/", 0) == 0 || path.rfind("bench/", 0) == 0;
}

bool
env_raw_allowed(std::string_view path)
{
    // The validated ROBOSHAPE_THREADS helper.
    return path == "src/core/executor.cc";
}

template <typename Table>
bool
in_table(const Table &table, std::string_view name)
{
    return std::find(table.begin(), table.end(), name) != table.end();
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() &&
           (s.front() == ' ' || s.front() == '\t' || s.front() == '\n' ||
            s.front() == '\r'))
        s.remove_prefix(1);
    while (!s.empty() &&
           (s.back() == ' ' || s.back() == '\t' || s.back() == '\n' ||
            s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

/** True when a decoded string literal looks like a JSON fragment. */
bool
json_shaped(std::string_view decoded)
{
    const std::string_view t = trim(decoded);
    if (t == "{" || t == "[")
        return true;
    if (!t.empty() && (t.front() == '{' || t.front() == '[') &&
        t.find('"') != std::string_view::npos)
        return true;
    // A quote immediately followed by ':' is the JSON key signature
    // ("name": ...), regardless of what the literal starts with.
    return t.find("\":") != std::string_view::npos;
}

/**
 * Walks outward from token @p i to find the identifier of the innermost
 * printf-family call the token is an argument of, if any.  Stops at a
 * statement boundary at call depth zero.
 */
bool
inside_printf_call(const std::vector<Token> &tokens, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j-- > 0;) {
        const Token &t = tokens[j];
        if (t.kind != TokKind::kPunct) {
            if (depth == 0 && t.kind == TokKind::kIdentifier &&
                j + 1 < tokens.size() &&
                tokens[j + 1].kind == TokKind::kPunct &&
                tokens[j + 1].text == "(" && in_table(kPrintfFns, t.text))
                return true;
            continue;
        }
        if (t.text == ")") {
            ++depth;
        } else if (t.text == "(") {
            if (depth > 0)
                --depth;
            // depth == 0: stepped out of an enclosing call; keep
            // scanning — the printf identifier sits just before it.
        } else if (depth == 0 && (t.text == ";" || t.text == "{" ||
                                  t.text == "}")) {
            return false;
        }
    }
    return false;
}

std::string
make_snippet(const std::string &content, const Token &tok)
{
    topology::SourceLocation loc;
    loc.offset = tok.offset;
    loc.line = tok.line;
    loc.column = tok.column;
    return topology::source_snippet(content, loc);
}

} // namespace

// ---------------------------------------------------------------------------
// Public metadata.

const std::vector<RuleInfo> &
rule_catalog()
{
    static const std::vector<RuleInfo> catalog = {
        {kRuleRawParse,
         "bare stoul/strtod/atoi/sscanf-family parsing outside "
         "core::parse_uint and the checked URDF number path"},
        {kRuleAllocWarm,
         "allocation calls inside '// lint: warm-path begin/end' regions"},
        {kRuleJsonWriter,
         "printf/ostream emission of JSON-shaped literals outside "
         "obs::JsonWriter"},
        {kRuleNondet,
         "rand/clock/time sources outside src/obs/ and bench/ timing"},
        {kRuleCounterSync,
         "obs counter/histogram names must match the OBSERVABILITY.md "
         "counter catalog (both directions)"},
        {kRuleEnvRaw,
         "getenv outside the validated ROBOSHAPE_THREADS helper"},
        {kRuleUnusedSuppression,
         "NOLINT naming a roboshape_lint rule that suppressed nothing"},
    };
    return catalog;
}

bool
is_known_rule(std::string_view name)
{
    for (const RuleInfo &r : rule_catalog())
        if (r.name == name)
            return true;
    return false;
}

std::string
Finding::to_string() const
{
    std::string out = file;
    if (line != 0) {
        out += ":" + std::to_string(line);
        if (column != 0)
            out += ":" + std::to_string(column);
    }
    out += ": error[" + rule + "] " + message;
    if (!snippet.empty())
        out += "\n" + snippet;
    return out;
}

// ---------------------------------------------------------------------------
// Linter.

struct Linter::Suppression
{
    std::string rule;
    std::string file;
    std::size_t applies_line = 0; ///< Line whose findings it suppresses.
    std::size_t comment_line = 0;
    std::size_t comment_column = 0;
    bool used = false;
};

struct Linter::CounterUse
{
    std::string name;
    std::string file;
    std::size_t line = 0;
    std::size_t column = 0;
    std::string snippet;
};

Linter::Linter(LintConfig config) : config_(std::move(config)) {}

Linter::~Linter() = default;

bool
Linter::rule_enabled(std::string_view rule) const
{
    // unused-suppression is a meta-rule: it is always live so that
    // filtered runs still flag stale annotations of the filtered rules?
    // No — a filtered run does not *evaluate* the other rules, so their
    // suppressions are legitimately unused; only report it when every
    // rule ran.
    if (rule == kRuleUnusedSuppression)
        return config_.rules.empty();
    return config_.rules.empty() ||
           config_.rules.count(std::string(rule)) != 0;
}

void
Linter::set_counter_doc(std::string rel_path, std::string_view content)
{
    doc_path_ = std::move(rel_path);
    doc_catalog_.clear();

    // Parse the region between the begin/end markers; every `backticked`
    // span containing a '.' is a counter/histogram name.
    std::size_t line_no = 0;
    bool in_catalog = false;
    std::size_t pos = 0;
    while (pos <= content.size()) {
        const std::size_t eol = content.find('\n', pos);
        const std::string_view line =
            content.substr(pos, eol == std::string_view::npos
                                    ? std::string_view::npos
                                    : eol - pos);
        ++line_no;
        if (line.find("lint:counter-catalog:begin") !=
            std::string_view::npos) {
            in_catalog = true;
        } else if (line.find("lint:counter-catalog:end") !=
                   std::string_view::npos) {
            in_catalog = false;
        } else if (in_catalog) {
            std::size_t tick = line.find('`');
            while (tick != std::string_view::npos) {
                const std::size_t close = line.find('`', tick + 1);
                if (close == std::string_view::npos)
                    break;
                const std::string_view name =
                    line.substr(tick + 1, close - tick - 1);
                if (!name.empty() &&
                    name.find('.') != std::string_view::npos &&
                    doc_catalog_.find(std::string(name)) ==
                        doc_catalog_.end())
                    doc_catalog_.emplace(std::string(name), line_no);
                tick = line.find('`', close + 1);
            }
        }
        if (eol == std::string_view::npos)
            break;
        pos = eol + 1;
    }
}

bool
Linter::report(Finding f)
{
    if (!rule_enabled(f.rule))
        return false;
    if (f.rule != kRuleUnusedSuppression) {
        for (Suppression &s : suppressions_) {
            if (s.file == f.file && s.applies_line == f.line &&
                s.rule == f.rule) {
                s.used = true;
                return false;
            }
        }
    }
    findings_.push_back(std::move(f));
    return true;
}

void
Linter::add_file(const std::string &rel_path, const std::string &content)
{
    const LexResult lexed = lex(content);

    // -- Suppressions and warm-path region markers live in comments. ----
    struct WarmEvent
    {
        std::size_t line;
        std::size_t column;
        std::size_t offset;
        bool begin;
    };
    std::vector<WarmEvent> warm_events;

    for (const Comment &cm : lexed.comments) {
        const std::string_view text = trim(cm.text);
        if (text == kWarmBegin) {
            warm_events.push_back({cm.line, cm.column, cm.offset, true});
            continue;
        }
        if (text == kWarmEnd) {
            warm_events.push_back({cm.line, cm.column, cm.offset, false});
            continue;
        }

        // NOLINT(rule[,rule]) / NOLINTNEXTLINE(rule[,rule]).
        std::size_t at = 0;
        while ((at = cm.text.find("NOLINT", at)) != std::string::npos) {
            std::size_t cursor = at + 6;
            bool next_line = false;
            if (cm.text.compare(cursor, 8, "NEXTLINE") == 0) {
                next_line = true;
                cursor += 8;
            }
            if (cursor >= cm.text.size() || cm.text[cursor] != '(') {
                at = cursor;
                continue; // Bare NOLINT: clang-tidy's business, not ours.
            }
            const std::size_t close = cm.text.find(')', cursor);
            if (close == std::string::npos)
                break;
            std::string_view list(cm.text.data() + cursor + 1,
                                  close - cursor - 1);
            while (!list.empty()) {
                const std::size_t comma = list.find(',');
                const std::string_view rule =
                    trim(comma == std::string_view::npos
                             ? list
                             : list.substr(0, comma));
                list = comma == std::string_view::npos
                           ? std::string_view{}
                           : list.substr(comma + 1);
                if (rule.empty() || !is_known_rule(rule))
                    continue; // Unknown name: assume clang-tidy's rule.
                Suppression s;
                s.rule = std::string(rule);
                s.file = rel_path;
                s.applies_line =
                    next_line ? cm.end_line + 1 : cm.line;
                s.comment_line = cm.line;
                s.comment_column = cm.column;
                suppressions_.push_back(std::move(s));
            }
            at = close;
        }
    }

    // -- Warm-path intervals (inclusive line ranges). -------------------
    std::vector<std::pair<std::size_t, std::size_t>> warm_regions;
    std::size_t open_line = 0;
    bool open = false;
    for (const WarmEvent &ev : warm_events) {
        if (ev.begin) {
            if (open) {
                Finding f;
                f.rule = std::string(kRuleAllocWarm);
                f.file = rel_path;
                f.line = ev.line;
                f.column = ev.column;
                f.message = "nested 'lint: warm-path begin' — previous "
                            "region opened on line " +
                            std::to_string(open_line) + " never closed";
                report(std::move(f));
            }
            open = true;
            open_line = ev.line;
        } else {
            if (!open) {
                Finding f;
                f.rule = std::string(kRuleAllocWarm);
                f.file = rel_path;
                f.line = ev.line;
                f.column = ev.column;
                f.message =
                    "'lint: warm-path end' without a matching begin";
                report(std::move(f));
                continue;
            }
            warm_regions.emplace_back(open_line, ev.line);
            open = false;
        }
    }
    if (open) {
        Finding f;
        f.rule = std::string(kRuleAllocWarm);
        f.file = rel_path;
        f.line = open_line;
        f.message = "'lint: warm-path begin' region never closed";
        report(std::move(f));
    }

    const auto in_warm_region = [&warm_regions](std::size_t line) {
        for (const auto &[lo, hi] : warm_regions)
            if (line >= lo && line <= hi)
                return true;
        return false;
    };

    // -- Token rules. ---------------------------------------------------
    const std::vector<Token> &toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];

        const bool call_like =
            t.kind == TokKind::kIdentifier && i + 1 < toks.size() &&
            toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(";

        // banned-raw-parse -------------------------------------------------
        if (call_like && in_table(kRawParseFns, t.text) &&
            !raw_parse_allowed(rel_path)) {
            Finding f;
            f.rule = std::string(kRuleRawParse);
            f.file = rel_path;
            f.line = t.line;
            f.column = t.column;
            f.message = "bare '" + t.text +
                        "' accepts signs/whitespace/trailing garbage — "
                        "use core::parse_uint or a checked parser";
            f.snippet = make_snippet(content, t);
            report(std::move(f));
        }

        // banned-env-raw ---------------------------------------------------
        if (call_like && in_table(kEnvFns, t.text) &&
            !env_raw_allowed(rel_path)) {
            Finding f;
            f.rule = std::string(kRuleEnvRaw);
            f.file = rel_path;
            f.line = t.line;
            f.column = t.column;
            f.message = "raw '" + t.text +
                        "' — environment knobs must go through the "
                        "validated ROBOSHAPE_THREADS helper";
            f.snippet = make_snippet(content, t);
            report(std::move(f));
        }

        // no-nondeterminism ------------------------------------------------
        if (!nondet_allowed(rel_path) &&
            ((call_like && in_table(kNondetCallFns, t.text)) ||
             (t.kind == TokKind::kIdentifier &&
              in_table(kNondetTypes, t.text)))) {
            Finding f;
            f.rule = std::string(kRuleNondet);
            f.file = rel_path;
            f.line = t.line;
            f.column = t.column;
            f.message =
                "'" + t.text +
                "' breaks bit-identical determinism — only src/obs/ "
                "wall tracing and bench/ timing may read clocks or "
                "entropy";
            f.snippet = make_snippet(content, t);
            report(std::move(f));
        }

        // no-alloc-warm-path -----------------------------------------------
        if (in_warm_region(t.line) && t.kind == TokKind::kIdentifier) {
            const bool is_new = t.text == "new";
            const bool is_delete =
                t.text == "delete" &&
                !(i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                  toks[i - 1].text == "="); // `= delete` declarations.
            if (is_new || is_delete ||
                (call_like && in_table(kAllocFns, t.text))) {
                Finding f;
                f.rule = std::string(kRuleAllocWarm);
                f.file = rel_path;
                f.line = t.line;
                f.column = t.column;
                f.message = "'" + t.text +
                            "' inside a warm-path region — the warm "
                            "path contract is zero allocation "
                            "(docs/STATIC_ANALYSIS.md)";
                f.snippet = make_snippet(content, t);
                report(std::move(f));
            }
        }

        // json-writer-only -------------------------------------------------
        if (t.kind == TokKind::kString && !json_writer_allowed(rel_path) &&
            json_shaped(t.text)) {
            const bool streamed =
                i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                toks[i - 1].text == "<<";
            if (streamed || inside_printf_call(toks, i)) {
                Finding f;
                f.rule = std::string(kRuleJsonWriter);
                f.file = rel_path;
                f.line = t.line;
                f.column = t.column;
                f.message =
                    "JSON-shaped literal emitted by hand — all JSON "
                    "goes through obs::JsonWriter (escaping + comma "
                    "bookkeeping live there)";
                f.snippet = make_snippet(content, t);
                report(std::move(f));
            }
        }

        // counter-name-sync: collect uses ----------------------------------
        if (t.kind == TokKind::kIdentifier &&
            (t.text == "ROBOSHAPE_OBS_COUNT" ||
             t.text == "ROBOSHAPE_OBS_RECORD") &&
            i + 2 < toks.size() && toks[i + 1].text == "(" &&
            toks[i + 2].kind == TokKind::kString) {
            CounterUse use;
            use.name = toks[i + 2].text;
            use.file = rel_path;
            use.line = toks[i + 2].line;
            use.column = toks[i + 2].column;
            use.snippet = make_snippet(content, toks[i + 2]);
            counter_uses_.push_back(std::move(use));
        }
    }
}

std::vector<Finding>
Linter::finish()
{
    finished_ = true;

    // counter-name-sync: code -> doc (one finding per distinct name).
    std::set<std::string> reported_missing;
    std::set<std::string> used_names;
    for (const CounterUse &use : counter_uses_) {
        used_names.insert(use.name);
        if (use.name.rfind("test.", 0) == 0)
            continue; // Test-local scratch counters are exempt.
        if (!doc_path_.empty() &&
            doc_catalog_.find(use.name) == doc_catalog_.end() &&
            reported_missing.insert(use.name).second) {
            Finding f;
            f.rule = std::string(kRuleCounterSync);
            f.file = use.file;
            f.line = use.line;
            f.column = use.column;
            f.message = "counter '" + use.name +
                        "' is not listed in the " + doc_path_ +
                        " counter catalog";
            f.snippet = use.snippet;
            report(std::move(f));
        }
    }

    // counter-name-sync: doc -> code.
    if (config_.doc_to_code && !doc_path_.empty()) {
        for (const auto &[name, line] : doc_catalog_) {
            if (used_names.count(name) != 0)
                continue;
            Finding f;
            f.rule = std::string(kRuleCounterSync);
            f.file = doc_path_;
            f.line = line;
            f.message = "catalog entry '" + name +
                        "' does not appear at any "
                        "ROBOSHAPE_OBS_COUNT/RECORD site";
            report(std::move(f));
        }
    }

    // unused-suppression.
    for (const Suppression &s : suppressions_) {
        if (s.used)
            continue;
        Finding f;
        f.rule = std::string(kRuleUnusedSuppression);
        f.file = s.file;
        f.line = s.comment_line;
        f.column = s.comment_column;
        f.message = "NOLINT(" + s.rule +
                    ") suppressed nothing — remove it or fix the rule "
                    "name";
        report(std::move(f));
    }

    std::sort(findings_.begin(), findings_.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.column != b.column)
                      return a.column < b.column;
                  return a.rule < b.rule;
              });
    return findings_;
}

// ---------------------------------------------------------------------------

std::string
findings_to_json(const std::vector<Finding> &findings)
{
    obs::JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "roboshape.lint_report/1");
    w.key("findings").begin_array();
    for (const Finding &f : findings) {
        w.begin_object();
        w.kv("rule", f.rule);
        w.kv("file", f.file);
        w.kv("line", static_cast<std::uint64_t>(f.line));
        w.kv("column", static_cast<std::uint64_t>(f.column));
        w.kv("message", f.message);
        w.end_object();
    }
    w.end_array();
    w.kv("count", static_cast<std::uint64_t>(findings.size()));
    w.end_object();
    return w.str();
}

std::vector<std::string>
collect_repo_files(const std::string &root)
{
    namespace fs = std::filesystem;
    static constexpr std::array<std::string_view, 5> kScanRoots = {
        "src", "tools", "bench", "tests", "examples"};
    static constexpr std::array<std::string_view, 5> kExtensions = {
        ".h", ".hpp", ".cc", ".cpp", ".inl"};

    std::vector<std::string> out;
    for (const std::string_view dir : kScanRoots) {
        const fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (!in_table(kExtensions, ext))
                continue;
            std::string rel =
                fs::relative(entry.path(), root).generic_string();
            // The fixture corpus intentionally violates every rule.
            if (rel.rfind("tests/lint_corpus/", 0) == 0)
                continue;
            out.push_back(std::move(rel));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace lint
} // namespace roboshape
