/**
 * @file
 * List scheduler for topology traversal task graphs (paper Sec. 4.2).
 *
 * Implements the paper's modified depth-first strategy: at every point where
 * a processing element goes idle, it picks the ready task heading the
 * longest remaining sequential thread (largest bottom level), preferring to
 * continue the thread it is already working on (which minimizes branch
 * checkpoint traffic).
 *
 * Two compositions are supported, matching the paper's Fig. 9 methodology:
 *  - staged (No Pipelining): each stage is scheduled in isolation and stage
 *    makespans add up;
 *  - pipelined (Avg. w/ Pipelining): one joint event-driven schedule where
 *    backward-stage PEs start as soon as forward results exist.
 */

#ifndef ROBOSHAPE_SCHED_LIST_SCHEDULER_H
#define ROBOSHAPE_SCHED_LIST_SCHEDULER_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/task_graph.h"

namespace roboshape {
namespace sched {

/** Cycle cost of one task of each type on a robomorphic PE. */
struct TaskTiming
{
    std::int64_t rnea_forward = 1;
    std::int64_t rnea_backward = 1;
    std::int64_t grad_forward = 1;
    std::int64_t grad_backward = 1;

    std::int64_t cost(TaskType t) const;

    bool operator==(const TaskTiming &) const = default;
};

/** Which PE pool executes a task type (paper knob PEs_fwd,bwd). */
enum class PeClass : std::uint8_t
{
    kForward,
    kBackward,
};

PeClass pe_class_of(TaskType t);

/** Placement of one task in the schedule. */
struct Placement
{
    TaskId task = kNoTask;
    PeClass pe_class = PeClass::kForward;
    int pe = -1;             ///< Index within its pool.
    std::int64_t start = 0;  ///< Cycle the task begins.
    std::int64_t finish = 0; ///< Cycle the task completes.
};

/** A complete schedule plus the statistics the architecture model needs. */
struct Schedule
{
    /** Placements indexed by TaskId. */
    std::vector<Placement> placements;

    std::int64_t makespan = 0;

    /** Longest busy interval end per PE class. */
    std::int64_t forward_makespan = 0;
    std::int64_t backward_makespan = 0;

    /** Number of schedule slots (distinct task starts) per PE class —
     *  drives the input-marshalling critical path (paper Sec. 5.1). */
    std::size_t forward_slots = 0;
    std::size_t backward_slots = 0;

    /**
     * Times a PE resumed a thread that was not a tree-child of its previous
     * task — each such switch exercises the branch checkpoint registers
     * (paper Fig. 8e).
     */
    std::size_t checkpoint_restores = 0;

    /** Ordered task ids per forward PE, for codegen schedule ROMs. */
    std::vector<std::vector<TaskId>> forward_rom;
    /** Ordered task ids per backward PE. */
    std::vector<std::vector<TaskId>> backward_rom;
};

/**
 * Scheduler policy switches.  Defaults implement the paper's strategy;
 * the alternatives exist for ablation studies (bench/ablation_scheduler).
 */
struct SchedulerOptions
{
    /** Prioritize the longest remaining sequential thread (bottom level);
     *  when false, tasks dispatch in graph order (FIFO). */
    bool longest_thread_priority = true;
    /** Prefer continuing the thread a PE already works on (minimizes
     *  branch checkpoint traffic). */
    bool thread_affinity = true;
};

/**
 * Schedules one stage in isolation: only tasks whose type is in @p types
 * are placed; dependencies on other stages are treated as satisfied at
 * cycle zero.
 */
Schedule schedule_stage(const TaskGraph &graph,
                        const std::vector<TaskType> &types,
                        std::size_t pe_count, const TaskTiming &timing,
                        const SchedulerOptions &options = {});

/**
 * Joint pipelined schedule of all four traversal stages over the two PE
 * pools; cross-stage dependencies are honored at task granularity.
 */
Schedule schedule_pipelined(const TaskGraph &graph, std::size_t pes_fwd,
                            std::size_t pes_bwd, const TaskTiming &timing,
                            const SchedulerOptions &options = {});

/**
 * Validates that @p s respects every dependency of @p graph and never
 * overlaps two tasks on one PE.  Returns an empty string when valid, else a
 * description of the first violation (used by tests).
 */
std::string validate_schedule(const TaskGraph &graph, const Schedule &s);

} // namespace sched
} // namespace roboshape

#endif // ROBOSHAPE_SCHED_LIST_SCHEDULER_H
