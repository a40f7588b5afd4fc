/**
 * @file
 * Implementation of block-sparsity analysis and blocked multiplication.
 */

#include "linalg/blocked.h"

#include <cmath>
#include <sstream>

namespace roboshape {
namespace linalg {

namespace {

std::size_t
div_round_up(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

} // namespace

BlockPattern::BlockPattern(const Matrix &m, std::size_t block_size,
                           double tol)
    : block_size_(block_size), rows_(m.rows()), cols_(m.cols())
{
    assert(block_size > 0);
    block_rows_ = div_round_up(rows_, block_size_);
    block_cols_ = div_round_up(cols_, block_size_);
    mask_.assign(block_rows_ * block_cols_, false);

    for (std::size_t br = 0; br < block_rows_; ++br) {
        for (std::size_t bc = 0; bc < block_cols_; ++bc) {
            bool any = false;
            std::size_t zeros = 0;
            for (std::size_t i = 0; i < block_size_; ++i) {
                for (std::size_t j = 0; j < block_size_; ++j) {
                    const std::size_t r = br * block_size_ + i;
                    const std::size_t c = bc * block_size_ + j;
                    if (r >= rows_ || c >= cols_ ||
                        std::abs(m(r, c)) <= tol) {
                        ++zeros;
                    } else {
                        any = true;
                    }
                }
            }
            mask_[br * block_cols_ + bc] = any;
            if (any)
                padded_zeros_ += zeros;
        }
    }
}

std::size_t
BlockPattern::nonzero_blocks() const
{
    std::size_t n = 0;
    for (bool b : mask_)
        n += b ? 1 : 0;
    return n;
}

std::string
BlockPattern::to_ascii() const
{
    std::ostringstream os;
    for (std::size_t br = 0; br < block_rows_; ++br) {
        for (std::size_t bc = 0; bc < block_cols_; ++bc)
            os << (nonzero(br, bc) ? 'X' : '.');
        os << '\n';
    }
    return os.str();
}

Matrix
blocked_multiply(const Matrix &a, const Matrix &b, std::size_t block_size,
                 BlockMultiplyStats *stats, double tol)
{
    assert(a.cols() == b.rows());
    const BlockPattern pa(a, block_size, tol);
    const BlockPattern pb(b, block_size, tol);

    Matrix out(a.rows(), b.cols());
    BlockMultiplyStats local;

    const std::size_t bi_end = pa.block_rows();
    const std::size_t bk_end = pa.block_cols();
    const std::size_t bj_end = pb.block_cols();

    for (std::size_t bi = 0; bi < bi_end; ++bi) {
        for (std::size_t bj = 0; bj < bj_end; ++bj) {
            for (std::size_t bk = 0; bk < bk_end; ++bk) {
                if (!pa.nonzero(bi, bk) || !pb.nonzero(bk, bj)) {
                    ++local.block_nops;
                    continue;
                }
                ++local.block_macs;
                // Execute the tile product on the unpadded region.
                const std::size_t r0 = bi * block_size;
                const std::size_t c0 = bj * block_size;
                const std::size_t k0 = bk * block_size;
                const std::size_t r1 = std::min(r0 + block_size, a.rows());
                const std::size_t c1 = std::min(c0 + block_size, b.cols());
                const std::size_t k1 = std::min(k0 + block_size, a.cols());
                for (std::size_t i = r0; i < r1; ++i) {
                    for (std::size_t k = k0; k < k1; ++k) {
                        const double av = a(i, k);
                        for (std::size_t j = c0; j < c1; ++j) {
                            out(i, j) += av * b(k, j);
                            ++local.scalar_macs;
                        }
                    }
                }
            }
        }
    }

    if (stats)
        *stats = local;
    return out;
}

} // namespace linalg
} // namespace roboshape
