/**
 * @file
 * Block-sparsity analysis and blocked matrix multiplication.
 *
 * Implements computational pattern 2 of the paper (Sec. 3.2 / Sec. 4.3):
 * topology-based N x N matrices such as the mass matrix carry limb-induced
 * block sparsity.  Partitioning the matrix into size_block x size_block tiles
 * lets hardware skip all-zero tiles ("NOP" blocks in paper Fig. 6b) at the
 * cost of zero padding when the block size misaligns with the dense regions
 * (the nonlinearity shown in paper Fig. 15).
 */

#ifndef ROBOSHAPE_LINALG_BLOCKED_H
#define ROBOSHAPE_LINALG_BLOCKED_H

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace roboshape {
namespace linalg {

/**
 * Boolean tile map of a matrix under a given block size.
 *
 * The matrix is conceptually zero-padded up to a multiple of the block size;
 * a tile is "nonzero" when any covered element exceeds the tolerance.
 */
class BlockPattern
{
  public:
    /**
     * Analyzes @p m with square tiles of @p block_size.
     * @param tol magnitude at or below which an element counts as zero.
     */
    BlockPattern(const Matrix &m, std::size_t block_size, double tol = 0.0);

    /** Tile edge length in elements. */
    std::size_t block_size() const { return block_size_; }

    /** Number of tile rows (= tile columns for square inputs padded up). */
    std::size_t block_rows() const { return block_rows_; }
    std::size_t block_cols() const { return block_cols_; }

    /** Original (unpadded) element dimensions. */
    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** True when tile (br, bc) holds at least one nonzero element. */
    bool nonzero(std::size_t br, std::size_t bc) const
    {
        return mask_[br * block_cols_ + bc];
    }

    /** Number of nonzero tiles. */
    std::size_t nonzero_blocks() const;

    /** Number of all-zero tiles (the hardware NOPs). */
    std::size_t zero_blocks() const
    {
        return block_rows_ * block_cols_ - nonzero_blocks();
    }

    /**
     * Padding waste: elements inside nonzero tiles that are zero (either
     * structural zeros of the matrix or pad elements outside its bounds),
     * i.e. work a blocked engine performs on zeros anyway.
     */
    std::size_t padded_zero_elements() const { return padded_zeros_; }

    /** Total elements processed by a blocked engine (nonzero tiles only). */
    std::size_t processed_elements() const
    {
        return nonzero_blocks() * block_size_ * block_size_;
    }

    /** ASCII rendering ("X" nonzero tile, "." NOP tile) for reports. */
    std::string to_ascii() const;

  private:
    std::size_t block_size_ = 0;
    std::size_t rows_ = 0, cols_ = 0;
    std::size_t block_rows_ = 0, block_cols_ = 0;
    std::size_t padded_zeros_ = 0;
    std::vector<bool> mask_;
};

/**
 * Operation counts gathered during a blocked multiply.
 */
struct BlockMultiplyStats
{
    std::size_t block_macs = 0;    ///< Tile-level multiply-accumulates done.
    std::size_t block_nops = 0;    ///< Tile-level products skipped as zero.
    std::size_t scalar_macs = 0;   ///< Scalar MACs inside executed tiles.

    /** Tile products a dense blocked engine would perform. */
    std::size_t total_block_products() const
    {
        return block_macs + block_nops;
    }
};

/**
 * Computes A * B via tile decomposition, skipping tile products where the
 * A-tile or B-tile is all zero.
 *
 * The numerical result is identical to the dense product; @p stats (when
 * non-null) receives the tile-level operation counts that the accelerator's
 * scheduler turns into cycles.
 */
Matrix blocked_multiply(const Matrix &a, const Matrix &b,
                        std::size_t block_size,
                        BlockMultiplyStats *stats = nullptr,
                        double tol = 0.0);

} // namespace linalg
} // namespace roboshape

#endif // ROBOSHAPE_LINALG_BLOCKED_H
