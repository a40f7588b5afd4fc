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
 * Concurrency: the entry map is guarded by one mutex (lookups are cheap);
 * each entry has its own mutex serializing the lazy SweepContext
 * accessors (which are not thread-safe, see core/sweep_context.h) and
 * body rendering.  Different topologies therefore compute fully in
 * parallel, while concurrent identical requests compute once and share.
 *
 * Counters: svc.cache_hits / svc.cache_misses count body-level lookups.
 * Eviction: FIFO beyond kMaxEntries distinct (model, kernel) pairs — the
 * daemon bounds memory against adversarial many-topology traffic.
 */

#ifndef ROBOSHAPE_SERVICE_CACHE_H
#define ROBOSHAPE_SERVICE_CACHE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/sweep_context.h"
#include "sched/task_graph.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace service {

/** Distinct (model, kernel) entries kept before FIFO eviction. */
inline constexpr std::size_t kMaxCacheEntries = 64;

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
    /** Stores @p body under @p key.  Caller must hold mutex(). */
    const std::string &store_body(const std::string &key, std::string body);

  private:
    std::mutex mutex_;
    std::shared_ptr<const topology::RobotModel> model_;
    sched::KernelKind kernel_;
    std::shared_ptr<core::SweepContext> context_;
    std::map<std::string, std::string> bodies_;
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

    /** Number of resident (model, kernel) entries. */
    std::size_t size() const;

  private:
    using Key = std::pair<std::uint64_t, sched::KernelKind>;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<CacheEntry>> entries_;
    std::deque<Key> order_; // FIFO eviction order
};

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_CACHE_H
