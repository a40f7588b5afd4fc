/**
 * @file
 * Blocked matrix-multiply scheduling (paper Sec. 4.3, pattern 2).
 *
 * The final stage of the dynamics gradient multiplies M^-1 (limb
 * block-diagonal) by the two partial-derivative matrices (ancestor-closure
 * sparsity).  The matrices are tiled into size_block x size_block blocks;
 * all-zero tile products are skipped as NOPs (paper Fig. 6), and the
 * surviving tile products are scheduled onto a small pool of block
 * matrix-vector multiply units.  Misaligned block sizes drag zero padding
 * into nonzero tiles, producing the nonlinear latency curve of paper
 * Fig. 15.
 */

#ifndef ROBOSHAPE_SCHED_BLOCK_SCHEDULE_H
#define ROBOSHAPE_SCHED_BLOCK_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "topology/topology_info.h"

namespace roboshape {
namespace sched {

/** Boolean sparsity mask of an N x N topology matrix. */
using SparsityMask = std::vector<std::vector<bool>>;

/** Mask of M(q)^-1: block diagonal over independent limb spans. */
SparsityMask mass_inverse_mask(const topology::TopologyInfo &topo);

/** Mask of dtau/dq and dtau/dqd: the ancestor-closure pattern. */
SparsityMask derivative_mask(const topology::TopologyInfo &topo);

/** Cycle cost model of one executed tile product. */
struct TileTiming
{
    /** Cycles per tile row streamed through a block-MV unit. */
    std::int64_t cycles_per_row = 1;
    /** Fixed cycles per tile product (operand load + accumulator drain). */
    std::int64_t overhead = 2;

    std::int64_t
    tile_cost(std::size_t block_size) const
    {
        return cycles_per_row * static_cast<std::int64_t>(block_size) +
               overhead;
    }

    bool operator==(const TileTiming &) const = default;
};

/** Result of scheduling one blocked multiply chain set. */
struct BlockSchedule
{
    std::int64_t makespan = 0;       ///< Cycles to drain all tile products.
    std::size_t executed_tiles = 0;  ///< Tile products performed.
    std::size_t nop_tiles = 0;       ///< Tile products skipped as zero.
    std::size_t padded_zero_elements = 0; ///< Zeros processed inside
                                          ///< executed tiles (wasted MACs).
    std::size_t tile_dim = 0;        ///< Tiles per matrix edge.
};

/**
 * Schedules C = A * B (structurally) with @p num_products identical
 * multiplies (the gradient needs two: dq and dqd share masks).
 *
 * Per output tile, the k-chain of tile MACs is serialized through an
 * accumulator; chains are distributed over @p units block-MV units longest
 * first.
 */
BlockSchedule schedule_block_multiply(const SparsityMask &a,
                                      const SparsityMask &b,
                                      std::size_t block_size,
                                      std::size_t units,
                                      const TileTiming &timing,
                                      std::size_t num_products = 2,
                                      bool skip_zero_tiles = true);

} // namespace sched
} // namespace roboshape

#endif // ROBOSHAPE_SCHED_BLOCK_SCHEDULE_H
