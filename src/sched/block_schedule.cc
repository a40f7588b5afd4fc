/**
 * @file
 * Implementation of blocked matrix-multiply scheduling.
 */

#include "sched/block_schedule.h"

#include <algorithm>
#include <cassert>

#include "obs/registry.h"

namespace roboshape {
namespace sched {

SparsityMask
mass_inverse_mask(const topology::TopologyInfo &topo)
{
    const std::size_t n = topo.num_links();
    SparsityMask mask(n, std::vector<bool>(n, false));
    for (const auto &[begin, end] : topo.limb_spans())
        for (std::size_t i = begin; i < end; ++i)
            for (std::size_t j = begin; j < end; ++j)
                mask[i][j] = true;
    return mask;
}

SparsityMask
derivative_mask(const topology::TopologyInfo &topo)
{
    return topo.mass_matrix_mask();
}

namespace {

/** Tile-level nonzero map of an element mask under a block size. */
struct TileMask
{
    std::size_t dim = 0;
    std::vector<bool> nonzero;
    std::size_t padded_zeros = 0;

    void
    build(const SparsityMask &m, std::size_t block)
    {
        const std::size_t n = m.size();
        dim = (n + block - 1) / block;
        nonzero.assign(dim * dim, false);
        padded_zeros = 0;
        for (std::size_t bi = 0; bi < dim; ++bi) {
            for (std::size_t bj = 0; bj < dim; ++bj) {
                bool any = false;
                std::size_t zeros = 0;
                for (std::size_t i = 0; i < block; ++i) {
                    for (std::size_t j = 0; j < block; ++j) {
                        const std::size_t r = bi * block + i;
                        const std::size_t c = bj * block + j;
                        if (r >= n || c >= n || !m[r][c])
                            ++zeros;
                        else
                            any = true;
                    }
                }
                nonzero[bi * dim + bj] = any;
                if (any)
                    padded_zeros += zeros;
            }
        }
    }

    bool operator()(std::size_t bi, std::size_t bj) const
    {
        return nonzero[bi * dim + bj];
    }
};

/** Reusable per-thread scratch; see the list scheduler's Workspace. */
struct Workspace
{
    TileMask ta, tb;
    std::vector<std::int64_t> chains;
    std::vector<std::int64_t> unit_loads;
};

Workspace &
workspace()
{
    static thread_local Workspace ws;
    return ws;
}

} // namespace

BlockSchedule
schedule_block_multiply(const SparsityMask &a, const SparsityMask &b,
                        std::size_t block_size, std::size_t units,
                        const TileTiming &timing, std::size_t num_products,
                        bool skip_zero_tiles)
{
    assert(!a.empty() && a.size() == b.size());
    assert(block_size > 0 && units > 0);

    Workspace &ws = workspace();
    TileMask &ta = ws.ta;
    TileMask &tb = ws.tb;
    ta.build(a, block_size);
    tb.build(b, block_size);

    BlockSchedule out;
    out.tile_dim = ta.dim;
    out.padded_zero_elements =
        (ta.padded_zeros + tb.padded_zeros) * num_products;

    // Per output tile (bi, bj): the serialized accumulator chain length is
    // the number of surviving k-tiles.
    std::vector<std::int64_t> &chains = ws.chains;
    chains.clear();
    chains.reserve(ta.dim * ta.dim * num_products);
    for (std::size_t bi = 0; bi < ta.dim; ++bi) {
        for (std::size_t bj = 0; bj < ta.dim; ++bj) {
            std::size_t execs = 0;
            for (std::size_t bk = 0; bk < ta.dim; ++bk) {
                if (!skip_zero_tiles || (ta(bi, bk) && tb(bk, bj)))
                    ++execs;
                else
                    ++out.nop_tiles;
            }
            out.executed_tiles += execs;
            if (execs > 0)
                chains.push_back(static_cast<std::int64_t>(execs) *
                                 timing.tile_cost(block_size));
        }
    }
    out.executed_tiles *= num_products;
    out.nop_tiles *= num_products;

    // The dq and dqd products replicate every chain.
    const std::size_t base_chains = chains.size();
    for (std::size_t rep = 1; rep < num_products; ++rep)
        for (std::size_t i = 0; i < base_chains; ++i)
            chains.push_back(chains[i]);

    // LPT (longest processing time first) onto the unit pool.  The pool is
    // tiny (mm_units defaults to 3), so a linear min scan beats a heap and
    // the tie-break choice cannot change the resulting load multiset.
    std::sort(chains.rbegin(), chains.rend());
    std::vector<std::int64_t> &unit_loads = ws.unit_loads;
    unit_loads.assign(units, 0);
    for (std::int64_t c : chains)
        *std::min_element(unit_loads.begin(), unit_loads.end()) += c;
    out.makespan = *std::max_element(unit_loads.begin(), unit_loads.end());

    ROBOSHAPE_OBS_COUNT("sched.block_runs", 1);
    ROBOSHAPE_OBS_COUNT("sched.block_executed_tiles", out.executed_tiles);
    ROBOSHAPE_OBS_COUNT("sched.block_nop_tiles", out.nop_tiles);
    ROBOSHAPE_OBS_COUNT("sched.block_padded_zeros",
                        out.padded_zero_elements);
    return out;
}

} // namespace sched
} // namespace roboshape
