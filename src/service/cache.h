/**
 * @file
 * Cross-request design cache of the roboshaped daemon (docs/SERVICE.md).
 *
 * Every request names a robot (library id or URDF body) and a kernel.
 * Sweeping and compiling that pair is pure: the response depends only on
 * the model, the kernel, and the knobs — so the daemon memoizes at two
 * levels, keyed by a structural hash of the parsed RobotModel:
 *
 *  1. the `core::SweepContext` (memoized schedules, PR 1) survives across
 *     requests, so a /v1/design after a /v1/sweep of the same topology
 *     re-runs zero scheduler passes; and
 *  2. the rendered response *bodies* are cached verbatim, which is what
 *     makes a cache hit byte-identical to the cold response — the
 *     property the `bench/daemon_throughput` gate asserts.
 *
 * A third, smaller memo sits in front of both: inline URDF text -> its
 * parsed model and model hash, so the /v1/design that follows a /v1/sweep
 * of the same text parses nothing.  It is keyed on the text itself, so a
 * hit has the same bytes, and only texts that parsed clean enter it.
 *
 * Concurrency: the entry map and the URDF memo are guarded by one mutex
 * (lookups are cheap); each entry has its own mutex serializing the lazy
 * SweepContext accessors (which are not thread-safe, see
 * core/sweep_context.h) and body rendering.  Different topologies
 * therefore compute fully in parallel, while concurrent identical
 * requests compute once and share.
 *
 * Counters: svc.cache_hits / svc.cache_misses count body-level lookups,
 * svc.urdf_memo_hits / svc.urdf_memo_misses URDF-text lookups.
 * Eviction: FIFO beyond kMaxCacheEntries distinct (model, kernel) pairs,
 * beyond kMaxDesignBodies design bodies per entry, and beyond
 * kMaxCacheEntries texts or kMaxMemoBytes of text in the URDF memo — the
 * daemon bounds memory against adversarial many-topology traffic.
 */

#ifndef ROBOSHAPE_SERVICE_CACHE_H
#define ROBOSHAPE_SERVICE_CACHE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/sweep_context.h"
#include "net/http.h"
#include "sched/task_graph.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace service {

/** Distinct (model, kernel) entries kept before FIFO eviction. */
inline constexpr std::size_t kMaxCacheEntries = 64;

/** Design bodies one entry keeps before FIFO eviction (the sweep body is
 *  never evicted). */
inline constexpr std::size_t kMaxDesignBodies = 256;

/** URDF text bytes the memo keeps in total: one request body's worth.  A
 *  longer text is never memoized. */
inline constexpr std::size_t kMaxMemoBytes = net::kMaxBodyBytes;

/**
 * Structural hash of a robot model: name, link names, parentage, joint
 * types/axes, frames, and inertias (splitmix64-mixed FNV over the exact
 * bytes).  Two models hash equal iff a request for either renders the
 * same responses, so the hash is a safe cache key and is also echoed to
 * clients as "topology_hash" for cache-correlation.
 */
std::uint64_t model_hash(const topology::RobotModel &model);

/** One cached topology: shared schedules + rendered response bodies. */
class CacheEntry
{
  public:
    CacheEntry(std::shared_ptr<const topology::RobotModel> model,
               sched::KernelKind kernel)
        : model_(std::move(model)), kernel_(kernel)
    {
    }

    /** Serializes all lazy work on this entry (see file comment). */
    std::mutex &mutex() { return mutex_; }

    const topology::RobotModel &model() const { return *model_; }
    sched::KernelKind kernel() const { return kernel_; }

    /**
     * The entry's SweepContext, created on first use.  Caller must hold
     * mutex(); the context's lazy accessors stay guarded by it too.
     */
    const std::shared_ptr<core::SweepContext> &context();

    /**
     * Cached response body for @p key (an endpoint-specific string like
     * "sweep" or "design/4/4/2"); nullptr when not rendered yet.  Caller
     * must hold mutex().
     */
    const std::string *find_body(const std::string &key) const;
    /**
     * Stores @p body under @p key and returns it.  Every key but "sweep"
     * is a design body; beyond kMaxDesignBodies of them the oldest is
     * evicted.  Caller must hold mutex().
     */
    const std::string &store_body(const std::string &key, std::string body);

    /** Number of stored bodies.  Caller must hold mutex(). */
    std::size_t body_count() const { return bodies_.size(); }

  private:
    using BodyMap = std::map<std::string, std::string>;

    std::mutex mutex_;
    std::shared_ptr<const topology::RobotModel> model_;
    sched::KernelKind kernel_;
    std::shared_ptr<core::SweepContext> context_;
    BodyMap bodies_;
    std::deque<BodyMap::iterator> design_order_; // FIFO eviction order
};

/** A URDF text's parsed model, shared by every entry built from it. */
struct ParsedUrdf
{
    std::shared_ptr<const topology::RobotModel> model;
    std::uint64_t hash = 0; ///< model_hash(*model)
};

class DesignCache
{
  public:
    /**
     * Entry for (@p hash, @p kernel), created from @p model when absent.
     * The returned shared_ptr stays valid across eviction (an evicted
     * entry finishes its in-flight requests and then dies).
     */
    std::shared_ptr<CacheEntry>
    entry(std::uint64_t hash, sched::KernelKind kernel,
          const topology::RobotModel &model);

    /** As above, but a created entry shares @p model instead of copying
     *  it. */
    std::shared_ptr<CacheEntry>
    entry(std::uint64_t hash, sched::KernelKind kernel,
          std::shared_ptr<const topology::RobotModel> model);

    /** Number of resident (model, kernel) entries. */
    std::size_t size() const;

    /** The memoized parse of @p urdf_text, or nullopt. */
    std::optional<ParsedUrdf> find_urdf(const std::string &urdf_text);

    /**
     * Memoizes @p parsed as the parse of @p urdf_text, evicting the oldest
     * texts beyond kMaxCacheEntries texts or kMaxMemoBytes bytes.  A text
     * longer than kMaxMemoBytes is not stored, and a text already present
     * keeps its first value.
     */
    void remember_urdf(std::string urdf_text, ParsedUrdf parsed);

    /** Number of memoized URDF texts. */
    std::size_t urdf_memo_size() const;

  private:
    using Key = std::pair<std::uint64_t, sched::KernelKind>;
    using UrdfMemo = std::unordered_map<std::string, ParsedUrdf>;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<CacheEntry>> entries_;
    std::deque<Key> order_; // FIFO eviction order
    UrdfMemo urdf_memo_;
    // FIFO eviction order, by the memo's own keys (node-based, so stable).
    std::deque<const std::string *> urdf_order_;
    std::size_t urdf_bytes_ = 0; // text bytes in the memo
};

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_CACHE_H
