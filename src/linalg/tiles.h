/**
 * @file
 * Column tiling shared by the register-tiled kernels of matrix.cc and
 * factorization.cc (an implementation detail of linalg, not an API).
 *
 * A tile is a fixed-size local array of accumulators that holds a block
 * of output entries while the kernel walks its terms, and is stored once
 * at the end.  Tiling changes only which entries share registers: every
 * entry still adds its own terms in the order the kernel documents.
 */

#ifndef ROBOSHAPE_LINALG_TILES_H
#define ROBOSHAPE_LINALG_TILES_H

#include <cstddef>
#include <type_traits>

namespace roboshape {
namespace linalg {
namespace tiles {

/**
 * Columns of a full tile.  Two rows of eight doubles take eight of the
 * sixteen 128-bit registers of the baseline x86-64 ISA, which leaves room
 * for a row of the right-hand operand and the two broadcast left entries.
 */
inline constexpr std::size_t kCols = 8;

/**
 * Calls @p tile(width, j) once per column tile [j, j + width) of
 * [0, @p cols): full tiles of kCols columns, then at most one tile each
 * of 4, 2 and 1 columns.  @p width is a std::integral_constant, so each
 * call instantiates a tile of a compile-time width.
 */
template <typename Tile>
void
for_each_column_tile(std::size_t cols, const Tile &tile)
{
    std::size_t j = 0;
    for (; j + kCols <= cols; j += kCols)
        tile(std::integral_constant<std::size_t, kCols>{}, j);
    if (cols - j >= 4) {
        tile(std::integral_constant<std::size_t, 4>{}, j);
        j += 4;
    }
    if (cols - j >= 2) {
        tile(std::integral_constant<std::size_t, 2>{}, j);
        j += 2;
    }
    if (cols - j == 1)
        tile(std::integral_constant<std::size_t, 1>{}, j);
}

} // namespace tiles
} // namespace linalg
} // namespace roboshape

#endif // ROBOSHAPE_LINALG_TILES_H
