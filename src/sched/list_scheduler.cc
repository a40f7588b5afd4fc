/**
 * @file
 * Implementation of the list scheduler.
 */

#include "sched/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <utility>

#include "obs/registry.h"

namespace roboshape {
namespace sched {

std::int64_t
TaskTiming::cost(TaskType t) const
{
    switch (t) {
      case TaskType::kRneaForward:
        return rnea_forward;
      case TaskType::kRneaBackward:
        return rnea_backward;
      case TaskType::kGradForward:
        return grad_forward;
      case TaskType::kGradBackward:
        return grad_backward;
    }
    return 1;
}

PeClass
pe_class_of(TaskType t)
{
    switch (t) {
      case TaskType::kRneaForward:
      case TaskType::kGradForward:
        return PeClass::kForward;
      case TaskType::kRneaBackward:
      case TaskType::kGradBackward:
        return PeClass::kBackward;
    }
    return PeClass::kForward;
}

namespace {

/**
 * Reusable per-thread scratch buffers of the engine.  A design-space sweep
 * runs thousands of schedules; keeping the capacity of these vectors alive
 * across runs removes every per-schedule allocation except the returned
 * Schedule itself.  thread_local keeps the sweep thread pool lock-free.
 */
struct Workspace
{
    std::vector<std::int64_t> priority;
    std::vector<std::int64_t> below;
    std::vector<int> pending;
    std::vector<std::vector<TaskId>> dependents;
    /** Ready lists per PE class, sorted by (priority desc, id asc). */
    std::vector<TaskId> ready[2];
    /** Min-heap of (finish cycle, task). */
    std::vector<std::pair<std::int64_t, TaskId>> completions;
};

Workspace &
workspace()
{
    static thread_local Workspace ws;
    return ws;
}

/** Event-driven list-scheduling engine shared by both compositions. */
class Engine
{
  public:
    Engine(const TaskGraph &graph, const TaskTiming &timing,
           std::size_t pes_fwd, std::size_t pes_bwd,
           std::vector<bool> active, bool cross_stage_deps,
           const SchedulerOptions &options)
        : graph_(graph), timing_(timing), active_(std::move(active)),
          cross_stage_(cross_stage_deps), options_(options),
          ws_(workspace())
    {
        pool_[0].assign(pes_fwd, Pe{});
        pool_[1].assign(pes_bwd, Pe{});
        build_priorities();
    }

    Schedule run();

  private:
    struct Pe
    {
        std::int64_t busy_until = 0;
        std::int32_t last_link = -1;
    };

    int
    pool_index(TaskId id) const
    {
        return pe_class_of(graph_.task(id).type) == PeClass::kForward ? 0
                                                                      : 1;
    }

    bool
    counts_as_dep(TaskId task, TaskId dep) const
    {
        if (!active_[dep])
            return false;
        return cross_stage_ || pool_index(task) == pool_index(dep);
    }

    /** Tree adjacency: continuing a traversal thread without a branch
     *  checkpoint restore. */
    bool
    thread_continues(std::int32_t from_link, std::int32_t to_link) const
    {
        if (from_link < 0 || from_link == to_link)
            return true;
        const auto &parents = graph_.parents();
        if (to_link >= 0 && parents[to_link] == from_link)
            return true;
        if (from_link >= 0 && parents[from_link] == to_link)
            return true;
        return false;
    }

    /**
     * Bottom levels over active tasks: a task's priority is its cost plus
     * the longest chain of active dependents ("longest sequential thread").
     * Task ids are topologically ordered by construction (every dependency
     * has a smaller id), so one reverse sweep suffices.
     */
    void
    build_priorities()
    {
        ws_.priority.assign(graph_.size(), 0);
        ws_.below.assign(graph_.size(), 0);
        for (std::size_t id = graph_.size(); id-- > 0;) {
            ws_.priority[id] =
                ws_.below[id] + timing_.cost(graph_.task(id).type);
            for (TaskId d : graph_.task(id).deps) {
                assert(d < static_cast<TaskId>(id));
                if (active_[id] && counts_as_dep(static_cast<TaskId>(id), d))
                    ws_.below[d] =
                        std::max(ws_.below[d], ws_.priority[id]);
            }
        }
        if (!options_.longest_thread_priority)
            ws_.priority.assign(graph_.size(), 1); // FIFO by task id
    }

    /** Ready-list order: highest priority first, then smallest id. */
    bool
    ready_before(TaskId a, TaskId b) const
    {
        if (ws_.priority[a] != ws_.priority[b])
            return ws_.priority[a] > ws_.priority[b];
        return a < b;
    }

    void
    ready_insert(int cls, TaskId id)
    {
        std::vector<TaskId> &v = ws_.ready[cls];
        v.insert(std::lower_bound(v.begin(), v.end(), id,
                                  [this](TaskId a, TaskId b) {
                                      return ready_before(a, b);
                                  }),
                 id);
    }

    void
    ready_erase(int cls, TaskId id)
    {
        // ready_before is a strict total order, so lower_bound lands
        // exactly on the element.
        std::vector<TaskId> &v = ws_.ready[cls];
        const auto it = std::lower_bound(v.begin(), v.end(), id,
                                         [this](TaskId a, TaskId b) {
                                             return ready_before(a, b);
                                         });
        assert(it != v.end() && *it == id);
        v.erase(it);
    }

    TaskId
    pick(const std::vector<TaskId> &ready, const Pe &unit) const
    {
        // Among the highest-priority ready tasks, prefer one continuing
        // this PE's current thread (minimizes checkpoint traffic).
        const TaskId best = ready.front();
        if (!options_.thread_affinity || unit.last_link < 0)
            return best;
        for (TaskId id : ready) {
            if (ws_.priority[id] < ws_.priority[best])
                break;
            if (thread_continues(unit.last_link, graph_.task(id).link))
                return id;
        }
        return best;
    }

    const TaskGraph &graph_;
    const TaskTiming &timing_;
    std::vector<bool> active_;
    bool cross_stage_;
    SchedulerOptions options_;
    std::vector<Pe> pool_[2];
    Workspace &ws_;
};

Schedule
Engine::run()
{
    Schedule s;
    s.placements.assign(graph_.size(), Placement{});
    s.forward_rom.assign(pool_[0].size(), {});
    s.backward_rom.assign(pool_[1].size(), {});

    ws_.pending.assign(graph_.size(), 0);
    if (ws_.dependents.size() < graph_.size())
        ws_.dependents.resize(graph_.size());
    for (std::size_t id = 0; id < graph_.size(); ++id)
        ws_.dependents[id].clear();
    std::size_t remaining = 0;
    for (const Task &t : graph_.tasks()) {
        if (!active_[t.id])
            continue;
        ++remaining;
        for (TaskId d : t.deps) {
            if (!counts_as_dep(t.id, d))
                continue;
            ++ws_.pending[t.id];
            ws_.dependents[d].push_back(t.id);
        }
    }

    for (int cls = 0; cls < 2; ++cls) {
        ws_.ready[cls].clear();
        ws_.ready[cls].reserve(graph_.size());
    }
    for (const Task &t : graph_.tasks())
        if (active_[t.id] && ws_.pending[t.id] == 0)
            ready_insert(pool_index(t.id), t.id);

    // Completion events as a min-heap over the finish cycle; ties release
    // together below, so the id order within a cycle is irrelevant.
    std::vector<std::pair<std::int64_t, TaskId>> &completions =
        ws_.completions;
    completions.clear();
    completions.reserve(pool_[0].size() + pool_[1].size());
    const auto later = std::greater<std::pair<std::int64_t, TaskId>>{};

    // Aggregated locally and published to the obs registry once per run,
    // keeping the event loop free of atomics.
    std::size_t placed = 0;
    std::size_t ready_depth_peak = 0;
    std::uint64_t deferred = 0;

    std::int64_t now = 0;
    while (remaining > 0 || !completions.empty()) {
        ready_depth_peak = std::max(
            ready_depth_peak, ws_.ready[0].size() + ws_.ready[1].size());
        // Dispatch onto every idle PE.
        for (int cls = 0; cls < 2; ++cls) {
            for (std::size_t pe = 0; pe < pool_[cls].size(); ++pe) {
                Pe &unit = pool_[cls][pe];
                if (unit.busy_until > now || ws_.ready[cls].empty())
                    continue;
                const TaskId id = pick(ws_.ready[cls], unit);
                ready_erase(cls, id);
                const Task &t = graph_.task(id);
                Placement &p = s.placements[id];
                p.task = id;
                p.pe_class = static_cast<PeClass>(cls);
                p.pe = static_cast<int>(pe);
                p.start = now;
                p.finish = now + timing_.cost(t.type);
                unit.busy_until = p.finish;
                if (!thread_continues(unit.last_link, t.link))
                    ++s.checkpoint_restores;
                unit.last_link = t.link;
                (cls == 0 ? s.forward_rom[pe] : s.backward_rom[pe])
                    .push_back(id);
                (cls == 0 ? s.forward_slots : s.backward_slots) += 1;
                completions.emplace_back(p.finish, id);
                std::push_heap(completions.begin(), completions.end(),
                               later);
                --remaining;
                ++placed;
            }
        }
        // Ready tasks left over after a dispatch round lost a placement
        // conflict: every PE of their pool is busy this cycle.
        deferred += ws_.ready[0].size() + ws_.ready[1].size();

        if (completions.empty()) {
            assert(remaining == 0);
            break;
        }
        // Advance to the next completion and release dependents.
        now = completions.front().first;
        while (!completions.empty() && completions.front().first == now) {
            const TaskId done = completions.front().second;
            std::pop_heap(completions.begin(), completions.end(), later);
            completions.pop_back();
            for (TaskId dep : ws_.dependents[done])
                if (--ws_.pending[dep] == 0)
                    ready_insert(pool_index(dep), dep);
        }
    }

    for (const Placement &p : s.placements) {
        if (p.task == kNoTask)
            continue;
        s.makespan = std::max(s.makespan, p.finish);
        if (p.pe_class == PeClass::kForward)
            s.forward_makespan = std::max(s.forward_makespan, p.finish);
        else
            s.backward_makespan = std::max(s.backward_makespan, p.finish);
    }

    ROBOSHAPE_OBS_COUNT("sched.list_runs", 1);
    ROBOSHAPE_OBS_COUNT("sched.tasks_placed", placed);
    ROBOSHAPE_OBS_COUNT("sched.placement_conflicts", deferred);
    ROBOSHAPE_OBS_COUNT("sched.checkpoint_restores",
                        s.checkpoint_restores);
    ROBOSHAPE_OBS_RECORD("sched.ready_depth_peak", ready_depth_peak);
    return s;
}

} // namespace

Schedule
schedule_stage(const TaskGraph &graph, const std::vector<TaskType> &types,
               std::size_t pe_count, const TaskTiming &timing,
               const SchedulerOptions &options)
{
    std::vector<bool> active(graph.size(), false);
    bool fwd = false, bwd = false;
    for (TaskType t : types) {
        for (TaskId id : graph.tasks_of_type(t))
            active[id] = true;
        (pe_class_of(t) == PeClass::kForward ? fwd : bwd) = true;
    }
    assert(fwd != bwd && "a stage lives in exactly one PE pool");
    Engine engine(graph, timing, fwd ? pe_count : 0, bwd ? pe_count : 0,
                  std::move(active), /*cross_stage_deps=*/false, options);
    return engine.run();
}

Schedule
schedule_pipelined(const TaskGraph &graph, std::size_t pes_fwd,
                   std::size_t pes_bwd, const TaskTiming &timing,
                   const SchedulerOptions &options)
{
    std::vector<bool> active(graph.size(), true);
    Engine engine(graph, timing, pes_fwd, pes_bwd, std::move(active),
                  /*cross_stage_deps=*/true, options);
    return engine.run();
}

std::string
validate_schedule(const TaskGraph &graph, const Schedule &s)
{
    std::ostringstream err;
    for (const Placement &p : s.placements) {
        if (p.task == kNoTask)
            continue;
        for (TaskId d : graph.task(p.task).deps) {
            const Placement &dp = s.placements[d];
            if (dp.task == kNoTask)
                continue; // dependency outside this stage schedule
            if (p.start < dp.finish) {
                err << graph.task(p.task).label() << " starts at " << p.start
                    << " before dep " << graph.task(d).label()
                    << " finishes at " << dp.finish;
                return err.str();
            }
        }
    }
    std::map<std::pair<int, int>, std::vector<const Placement *>> by_pe;
    for (const Placement &p : s.placements)
        if (p.task != kNoTask)
            by_pe[{static_cast<int>(p.pe_class), p.pe}].push_back(&p);
    for (auto &[pe, list] : by_pe) {
        std::sort(list.begin(), list.end(),
                  [](const Placement *a, const Placement *b) {
                      return a->start < b->start;
                  });
        for (std::size_t k = 1; k < list.size(); ++k) {
            if (list[k]->start < list[k - 1]->finish) {
                err << "overlap on pe(" << pe.first << "," << pe.second
                    << ") between " << graph.task(list[k - 1]->task).label()
                    << " and " << graph.task(list[k]->task).label();
                return err.str();
            }
        }
    }
    return "";
}

} // namespace sched
} // namespace roboshape
