/**
 * @file
 * Deterministic fault-injection harness for the URDF/XML ingestion front
 * end (see docs/INGESTION.md).
 *
 * Invariant under test: for EVERY input — however malformed — the parser
 * either returns a RobotModel or throws a typed parse error (UrdfError /
 * XmlError).  It must never crash, hang, leak a non-parser exception
 * (std::invalid_argument, std::out_of_range, ...), and the report-mode
 * entry point `parse_urdf_checked` must never throw at all.  The two modes
 * must also agree: strict succeeds iff the checked report is clean, and on
 * success both produce bit-identical models.
 *
 * Seeds are the bundled robot-library URDFs plus every file in the
 * committed adversarial corpus (data/corpus/).  Mutations come from
 * io::mutate_urdf and are a pure function of the iteration index, so any
 * failure is reproducible with --replay <iteration>.  The mutation storm
 * shards iterations across the persistent executor (ROBOSHAPE_THREADS
 * pins the width); the reported violation is the smallest violating
 * iteration index, replayed serially, so output is independent of the
 * worker count.
 *
 * Exit code 0 = invariant held for all iterations; 1 = violation (the
 * offending seed, mutation trail, and document are printed).
 *
 * Usage:
 *   urdf_fuzz [--iterations N] [--seed S] [--corpus DIR] [--replay I]
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/executor.h"
#include "core/parse_uint.h"
#include "io/fault_injection.h"
#include "topology/robot_library.h"
#include "topology/urdf_parser.h"
#include "topology/xml.h"

namespace {

using roboshape::io::mutate_urdf;
using roboshape::io::mutation_name;
using roboshape::io::MutationResult;
using roboshape::topology::all_robot_urdfs;
using roboshape::topology::NamedUrdf;
using roboshape::topology::parse_urdf;
using roboshape::topology::parse_urdf_checked;
using roboshape::topology::RobotModel;
using roboshape::topology::UrdfError;
using roboshape::topology::UrdfParseResult;
using roboshape::topology::XmlError;

struct Options
{
    std::uint64_t iterations = 12000;
    std::uint64_t seed = 0x5350AE5Cu; // arbitrary fixed default
    std::string corpus_dir;
    std::int64_t replay = -1; // single iteration to re-run verbosely
};

struct Stats
{
    std::uint64_t parsed_ok = 0;
    std::uint64_t urdf_errors = 0;
    std::uint64_t xml_errors = 0;
    std::map<std::string, std::uint64_t> by_code;
};

/** Outcome of one strict parse attempt. */
enum class Outcome
{
    kModel,
    kTypedError,
    kViolation,
};

void
print_document(const std::string &text)
{
    constexpr std::size_t kMax = 4096;
    std::cerr << "---- begin document (" << text.size() << " bytes"
              << (text.size() > kMax ? ", truncated" : "") << ") ----\n"
              << text.substr(0, kMax)
              << "\n---- end document ----\n";
}

/**
 * Runs both parser modes on @p text and checks the full invariant.
 * Returns kViolation on any breach, printing why to @p err (the storm
 * workers pass a discarded stream; the serial replay passes std::cerr).
 */
Outcome
check_invariant(const std::string &text, Stats &stats, std::ostream &err)
{
    bool strict_ok = false;
    RobotModel strict_model;
    try {
        strict_model = parse_urdf(text);
        strict_ok = true;
        ++stats.parsed_ok;
    } catch (const UrdfError &e) {
        ++stats.urdf_errors;
        ++stats.by_code[to_string(e.code())];
    } catch (const XmlError &e) {
        ++stats.xml_errors;
        ++stats.by_code[to_string(e.code())];
    } catch (const std::exception &e) {
        err << "INVARIANT VIOLATION: parse_urdf leaked a non-parser "
               "exception: "
            << typeid(e).name() << ": " << e.what() << "\n";
        return Outcome::kViolation;
    } catch (...) {
        err << "INVARIANT VIOLATION: parse_urdf leaked an unknown "
               "exception\n";
        return Outcome::kViolation;
    }

    UrdfParseResult checked;
    try {
        checked = parse_urdf_checked(text);
    } catch (const std::exception &e) {
        err << "INVARIANT VIOLATION: parse_urdf_checked threw ("
            << typeid(e).name() << ": " << e.what() << ")\n";
        return Outcome::kViolation;
    } catch (...) {
        err << "INVARIANT VIOLATION: parse_urdf_checked threw an "
               "unknown exception\n";
        return Outcome::kViolation;
    }

    if (strict_ok != checked.ok()) {
        err << "INVARIANT VIOLATION: strict/checked disagree (strict "
            << (strict_ok ? "ok" : "error") << ", checked "
            << (checked.ok() ? "ok" : "error") << ")\n"
            << checked.report.to_string();
        return Outcome::kViolation;
    }
    if (!strict_ok)
        return Outcome::kTypedError;

    // Success path: the two modes must produce bit-identical models.
    const RobotModel &a = strict_model;
    const RobotModel &b = *checked.model;
    bool same = a.name() == b.name() && a.num_links() == b.num_links();
    for (std::size_t i = 0; same && i < a.num_links(); ++i) {
        const auto &la = a.link(i);
        const auto &lb = b.link(i);
        same = la.name == lb.name && la.parent == lb.parent &&
               la.joint.type() == lb.joint.type() &&
               std::memcmp(&la.joint.axis(), &lb.joint.axis(),
                           sizeof(la.joint.axis())) == 0 &&
               std::memcmp(&la.x_tree, &lb.x_tree, sizeof(la.x_tree)) == 0 &&
               std::memcmp(&la.inertia, &lb.inertia,
                           sizeof(la.inertia)) == 0;
    }
    if (!same) {
        err << "INVARIANT VIOLATION: strict and checked parses "
               "produced different models\n";
        return Outcome::kViolation;
    }
    return Outcome::kModel;
}

/** Folds the per-lane tallies of the parallel storm into @p into.  Plain
 *  summation: the totals are independent of how iterations were sharded. */
void
merge_stats(Stats &into, const Stats &from)
{
    into.parsed_ok += from.parsed_ok;
    into.urdf_errors += from.urdf_errors;
    into.xml_errors += from.xml_errors;
    for (const auto &[code, count] : from.by_code)
        into.by_code[code] += count;
}

std::vector<NamedUrdf>
load_seeds(const Options &opt)
{
    std::vector<NamedUrdf> seeds = all_robot_urdfs();
    if (!opt.corpus_dir.empty()) {
        std::vector<std::filesystem::path> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(opt.corpus_dir))
            if (entry.is_regular_file())
                paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end()); // deterministic order
        for (const auto &p : paths) {
            std::ifstream in(p, std::ios::binary);
            std::ostringstream ss;
            ss << in.rdbuf();
            seeds.push_back({p.filename().string(), ss.str()});
        }
    }
    return seeds;
}

/**
 * Strict numeric flag: the whole token must be a decimal integer in
 * [min, max].  `--iterations garbage` used to strtoull to 0 and the run
 * "passed" having tested nothing — that silent vacuity is exactly the
 * failure mode this harness exists to catch in the parser, so the
 * harness's own flags hold themselves to the same standard.
 */
bool
parse_flag_uint(const std::string &flag, const char *value,
                std::uint64_t min, std::uint64_t max, std::uint64_t &out)
{
    if (!value) {
        std::cerr << "error: " << flag << " requires a value\n";
        return false;
    }
    const auto parsed = roboshape::core::parse_uint(value, min, max);
    if (!parsed) {
        std::cerr << "error: invalid value '" << value << "' for " << flag
                  << " (expected an unsigned integer in [" << min << ", "
                  << max << "])\n";
        return false;
    }
    out = *parsed;
    return true;
}

bool
parse_args(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--iterations") {
            // 0 iterations is rejected explicitly: a fuzz run that tests
            // nothing must not exit 0.
            if (!parse_flag_uint(arg, next(), 1,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 opt.iterations))
                return false;
        } else if (arg == "--seed") {
            if (!parse_flag_uint(arg, next(), 0,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 opt.seed))
                return false;
        } else if (arg == "--corpus") {
            const char *v = next();
            if (!v) {
                std::cerr << "error: --corpus requires a value\n";
                return false;
            }
            opt.corpus_dir = v;
        } else if (arg == "--replay") {
            std::uint64_t replay = 0;
            if (!parse_flag_uint(
                    arg, next(), 0,
                    static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()),
                    replay))
                return false;
            opt.replay = static_cast<std::int64_t>(replay);
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n"
                      << "usage: urdf_fuzz [--iterations N] [--seed S] "
                         "[--corpus DIR] [--replay I]\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse_args(argc, argv, opt))
        return 2;

    const std::vector<NamedUrdf> seeds = load_seeds(opt);
    if (seeds.empty()) {
        std::cerr << "no seeds\n";
        return 2;
    }
    std::cout << "urdf_fuzz: " << seeds.size() << " seeds ("
              << all_robot_urdfs().size() << " library robots, "
              << seeds.size() - all_robot_urdfs().size()
              << " corpus files), " << opt.iterations << " iterations, "
              << "seed " << opt.seed << "\n";

    Stats stats;

    // Phase 0: every pristine seed must already satisfy the invariant, and
    // every *library* seed must parse to a model (they are well-formed by
    // construction; corpus files are allowed to be malformed).
    const std::size_t library_count = all_robot_urdfs().size();
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        const Outcome out = check_invariant(seeds[s].text, stats, std::cerr);
        if (out == Outcome::kViolation ||
            (s < library_count && out != Outcome::kModel)) {
            std::cerr << "pristine seed '" << seeds[s].name
                      << "' violated the invariant\n";
            print_document(seeds[s].text);
            return 1;
        }
    }

    // Phase 1: deterministic mutation storm.  Iteration i derives its
    // mutation seed purely from (opt.seed, i), so --replay reproduces any
    // failure exactly.  The storm shards iterations across the executor;
    // each lane tallies into its own Stats and violations record only an
    // iteration index, so the merged totals and the reported (smallest)
    // violating iteration are independent of the sharding.  --replay runs
    // its single iteration serially and verbosely.
    if (opt.replay >= 0) {
        const std::uint64_t i = static_cast<std::uint64_t>(opt.replay);
        const std::uint64_t mseed = opt.seed * 0x9E3779B97F4A7C15ull + i;
        const NamedUrdf &seed_doc = seeds[mseed % seeds.size()];
        const MutationResult mut = mutate_urdf(seed_doc.text, mseed);
        std::cerr << "replay iteration " << i << ": seed '" << seed_doc.name
                  << "', mutations:";
        for (const auto k : mut.applied)
            std::cerr << " " << mutation_name(k);
        std::cerr << "\n";
        print_document(mut.text);
        if (check_invariant(mut.text, stats, std::cerr) ==
            Outcome::kViolation)
            return 1;
    } else {
        roboshape::core::Executor &exec =
            roboshape::core::Executor::instance();
        const std::size_t lanes = exec.resolve_width(opt.iterations);
        std::vector<Stats> lane_stats(lanes);
        constexpr std::uint64_t kNone = ~std::uint64_t{0};
        std::atomic<std::uint64_t> first_violation{kNone};
        exec.parallel_for_lanes(
            opt.iterations,
            [&](std::uint64_t i, std::size_t lane) {
                const std::uint64_t mseed =
                    opt.seed * 0x9E3779B97F4A7C15ull + i;
                const NamedUrdf &seed_doc = seeds[mseed % seeds.size()];
                const MutationResult mut = mutate_urdf(seed_doc.text, mseed);
                std::ostringstream quiet; // per-call, discarded
                if (check_invariant(mut.text, lane_stats[lane], quiet) ==
                    Outcome::kViolation) {
                    std::uint64_t cur =
                        first_violation.load(std::memory_order_relaxed);
                    while (i < cur &&
                           !first_violation.compare_exchange_weak(cur, i))
                        ;
                }
            },
            /*requested=*/0);
        for (const Stats &s : lane_stats)
            merge_stats(stats, s);

        const std::uint64_t violation = first_violation.load();
        if (violation != kNone) {
            // Replay the smallest violating iteration serially so the
            // verbose diagnosis is printed exactly once, in order.
            const std::uint64_t mseed =
                opt.seed * 0x9E3779B97F4A7C15ull + violation;
            const NamedUrdf &seed_doc = seeds[mseed % seeds.size()];
            const MutationResult mut = mutate_urdf(seed_doc.text, mseed);
            Stats scratch;
            check_invariant(mut.text, scratch, std::cerr);
            std::cerr << "iteration " << violation << " (seed doc '"
                      << seed_doc.name << "', mutations:";
            for (const auto k : mut.applied)
                std::cerr << " " << mutation_name(k);
            std::cerr << ") violated the invariant; reproduce with:\n  "
                      << argv[0] << " --seed " << opt.seed << " --replay "
                      << violation;
            if (!opt.corpus_dir.empty())
                std::cerr << " --corpus " << opt.corpus_dir;
            std::cerr << "\n";
            print_document(mut.text);
            return 1;
        }
    }

    std::cout << "invariant held: " << stats.parsed_ok << " parsed, "
              << stats.urdf_errors << " typed URDF errors, "
              << stats.xml_errors << " typed XML errors\n";
    std::cout << "error-code histogram:\n";
    for (const auto &[code, count] : stats.by_code)
        std::cout << "  " << code << ": " << count << "\n";
    return 0;
}
