/**
 * @file
 * Unit tests for the dense linear-algebra substrate.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/factorization.h"
#include "linalg/matrix.h"
#include "linalg/random.h"

namespace roboshape {
namespace linalg {
namespace {

TEST(Vector, ArithmeticAndNorms)
{
    Vector a{1.0, 2.0, 3.0};
    Vector b{4.0, -5.0, 6.0};
    Vector c = a + b;
    EXPECT_DOUBLE_EQ(c[0], 5.0);
    EXPECT_DOUBLE_EQ(c[1], -3.0);
    EXPECT_DOUBLE_EQ(c[2], 9.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 10.0 + 18.0);
    EXPECT_DOUBLE_EQ((a * 2.0)[2], 6.0);
    EXPECT_DOUBLE_EQ(Vector({3.0, 4.0}).norm(), 5.0);
    EXPECT_DOUBLE_EQ(b.max_abs(), 6.0);
}

TEST(Matrix, IdentityAndResize)
{
    Matrix m = Matrix::identity(4);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_DOUBLE_EQ(m(2, 2), 1.0);
    EXPECT_DOUBLE_EQ(m(2, 1), 0.0);
    m.resize(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, ProductAgainstHandComputed)
{
    Matrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;
    Matrix b(3, 2);
    b(0, 0) = 7;
    b(0, 1) = 8;
    b(1, 0) = 9;
    b(1, 1) = 10;
    b(2, 0) = 11;
    b(2, 1) = 12;
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposeInvolution)
{
    Matrix a = random_matrix(5, 3, 11);
    EXPECT_NEAR(max_abs_diff(a.transposed().transposed(), a), 0.0, 0.0);
}

TEST(Matrix, MatrixVectorAgreesWithMatrixMatrix)
{
    Matrix a = random_matrix(6, 6, 3);
    Vector x = random_vector(6, 4);
    Matrix xm(6, 1);
    for (std::size_t i = 0; i < 6; ++i)
        xm(i, 0) = x[i];
    const Vector y = a * x;
    const Matrix ym = a * xm;
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(y[i], ym(i, 0), 1e-12);
}

TEST(Matrix, InPlaceProductsMatchAllocatingForms)
{
    Matrix a = random_matrix(5, 4, 12);
    a(1, 2) = 0.0; // exercises the zero skip
    a(3, 0) = 0.0;
    const Matrix b = random_matrix(4, 6, 13);
    const Matrix c = random_matrix(5, 3, 14);
    const Vector v = random_vector(5, 15);

    // Stale contents and shape in the output are fully overwritten.
    Matrix out = random_matrix(2, 9, 16);
    multiply_into(a, b, out);
    ASSERT_EQ(out.rows(), 5u);
    ASSERT_EQ(out.cols(), 6u);
    EXPECT_EQ(max_abs_diff(out, a * b), 0.0);

    transposed_multiply_into(a, c, out);
    ASSERT_EQ(out.rows(), 4u);
    ASSERT_EQ(out.cols(), 3u);
    EXPECT_EQ(max_abs_diff(out, a.transposed() * c), 0.0);

    Vector vout = random_vector(2, 17);
    transposed_multiply_into(a, v, vout);
    ASSERT_EQ(vout.size(), 4u);
    EXPECT_EQ(max_abs_diff(vout, a.transposed() * v), 0.0);
}

/** Output row counts: one full two-row tile, a tail row alone, full
 *  tiles plus a tail row, and the 30 rows of Jaco-3's pass. */
constexpr std::size_t kKernelRows[] = {1, 2, 3, 5, 30};

/** Output column counts: every width below two full tiles of eight (so
 *  each combination of the 4-, 2- and 1-column tail tiles), one column
 *  either side of two full tiles, and the pass's 2m (m = 15) and
 *  2m + 1 widths and HyQ+arm's 2n = 38. */
constexpr std::size_t kKernelColumns[] = {1, 2,  3,  4,  5,  6,  7, 8,
                                          9, 15, 16, 17, 30, 31, 38};

/** Equal sizes and equal bits in every element. */
::testing::AssertionResult
bitwise_equal(const std::vector<double> &got, const std::vector<double> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << got.size() << " elements, want " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i)
        if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(want[i]))
            return ::testing::AssertionFailure()
                   << "element " << i << " is " << got[i] << ", want "
                   << want[i];
    return ::testing::AssertionSuccess();
}

/** A random matrix with a third of its entries zero, one of them -0.
 *  Neighbouring rows have their zeros in different columns. */
Matrix
random_matrix_with_zeros(std::size_t rows, std::size_t cols,
                         std::uint32_t seed)
{
    Matrix m = random_matrix(rows, cols, seed);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            if ((i + 2 * j) % 3 == 0)
                m(i, j) = 0.0;
    if (rows > 0 && cols > 0)
        m(0, 0) = -0.0;
    return m;
}

TEST(Matrix, InPlaceProductsMatchPlainLoopsBitwise)
{
    // References written out here, not the library's allocating forms
    // (which call the same kernels): each sum starts at 0 and adds every
    // term, zero or not, in ascending order.
    for (const std::size_t rows : kKernelRows)
        for (const std::size_t depth : {0u, 9u, 30u})
            for (const std::size_t cols : kKernelColumns) {
                const std::string what =
                    std::to_string(rows) + "x" + std::to_string(depth) +
                    " times " + std::to_string(depth) + "x" +
                    std::to_string(cols);
                const auto seed =
                    static_cast<std::uint32_t>(1000 * rows + 40 * depth + cols);
                const Matrix a = random_matrix_with_zeros(rows, depth, seed);
                const Matrix at =
                    random_matrix_with_zeros(depth, rows, seed + 1);
                const Matrix b = random_matrix(depth, cols, seed + 2);
                const Matrix wide =
                    random_matrix_with_zeros(depth, cols, seed + 3);
                const Vector v = random_vector(depth, seed + 4);

                Matrix want(rows, cols), want_t(rows, cols);
                Vector want_v(cols);
                for (std::size_t i = 0; i < rows; ++i)
                    for (std::size_t j = 0; j < cols; ++j) {
                        double acc = 0.0, acc_t = 0.0;
                        for (std::size_t k = 0; k < depth; ++k) {
                            acc += a(i, k) * b(k, j);
                            acc_t += at(k, i) * b(k, j);
                        }
                        want(i, j) = acc;
                        want_t(i, j) = acc_t;
                    }
                for (std::size_t i = 0; i < cols; ++i) {
                    double acc = 0.0;
                    for (std::size_t k = 0; k < depth; ++k)
                        acc += wide(k, i) * v[k];
                    want_v[i] = acc;
                }

                // Stale contents and shape in the output are overwritten.
                Matrix out = random_matrix(3, 4, seed + 5);
                multiply_into(a, b, out);
                EXPECT_EQ(out.rows(), rows) << what;
                EXPECT_TRUE(bitwise_equal(out.data(), want.data())) << what;
                transposed_multiply_into(at, b, out);
                EXPECT_EQ(out.rows(), rows) << what;
                EXPECT_TRUE(bitwise_equal(out.data(), want_t.data()))
                    << what;
                Vector vout;
                transposed_multiply_into(wide, v, vout);
                EXPECT_TRUE(bitwise_equal(vout.data(), want_v.data()))
                    << what;
            }
}

TEST(Matrix, ZeroLeftEntriesSkipNonFiniteRightEntries)
{
    // The products skip a zero left-hand entry per output row, never per
    // tile: rows 0 and 1 share every tile, row 0 has zeros (of either
    // sign) in column k of the left operand and row 1 does not, and row
    // k of the right operand is +inf.  Row 0 adds no term of row k, so
    // it stays finite; row 1 adds one inf term and becomes +inf.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double zero : {0.0, -0.0})
        for (const std::size_t cols : {3u, 15u, 17u}) {
            const std::string what =
                std::to_string(cols) + " columns, zero " +
                std::to_string(zero);
            constexpr std::size_t kDepth = 5, kInfRow = 2;
            Matrix a = random_matrix(4, kDepth, 51, 0.5, 1.0);
            Matrix b = random_matrix(kDepth, cols, 52);
            a(0, kInfRow) = zero;
            a(2, kInfRow) = zero;
            for (std::size_t j = 0; j < cols; ++j)
                b(kInfRow, j) = inf;
            const Matrix at = a.transposed();

            Matrix out, out_t;
            multiply_into(a, b, out);
            transposed_multiply_into(at, b, out_t);
            for (const Matrix *m : {&out, &out_t})
                for (std::size_t j = 0; j < cols; ++j) {
                    for (const std::size_t zero_row : {0u, 2u})
                        EXPECT_TRUE(std::isfinite((*m)(zero_row, j)))
                            << what << " row " << zero_row << " col " << j;
                    for (const std::size_t inf_row : {1u, 3u})
                        EXPECT_EQ((*m)(inf_row, j), inf)
                            << what << " row " << inf_row << " col " << j;
                }
        }
}

TEST(Ldlt, SolveInPlaceMatchesPlainSubstitutionBitwise)
{
    for (const std::size_t n : kKernelRows) {
        const Matrix spd =
            random_spd_matrix(n, static_cast<std::uint32_t>(n) + 41);
        const Ldlt f(spd);
        ASSERT_TRUE(f.ok()) << n;
        const Matrix &l = f.l();
        for (const std::size_t cols : kKernelColumns) {
            const Matrix b = random_matrix(
                n, cols, static_cast<std::uint32_t>(100 * n + cols) + 42);
            // Forward substitution, diagonal, backward substitution,
            // column by column.
            Matrix want = b;
            for (std::size_t c = 0; c < cols; ++c) {
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t k = 0; k < i; ++k)
                        want(i, c) -= l(i, k) * want(k, c);
                for (std::size_t i = 0; i < n; ++i)
                    want(i, c) /= f.d()[i];
                for (std::size_t i = n; i-- > 0;)
                    for (std::size_t k = i + 1; k < n; ++k)
                        want(i, c) -= l(k, i) * want(k, c);
            }
            Matrix x = b;
            f.solve_in_place(x);
            EXPECT_TRUE(bitwise_equal(x.data(), want.data()))
                << n << " rows, " << cols << " columns";
        }
    }
}

TEST(Matrix, BlockReadWriteRoundTrip)
{
    Matrix a = random_matrix(6, 6, 5);
    Matrix b = a.block(1, 2, 3, 4);
    EXPECT_DOUBLE_EQ(b(0, 0), a(1, 2));
    EXPECT_DOUBLE_EQ(b(2, 3), a(3, 5));
    Matrix c(6, 6);
    c.set_block(1, 2, b);
    EXPECT_NEAR(max_abs_diff(c.block(1, 2, 3, 4), b), 0.0, 0.0);
}

TEST(Matrix, SymmetryAndSparsityQueries)
{
    Matrix s = random_spd_matrix(5, 9);
    EXPECT_TRUE(s.is_symmetric());
    s(0, 1) += 1.0;
    EXPECT_FALSE(s.is_symmetric());

    Matrix z(4, 4);
    z(0, 0) = 1.0;
    EXPECT_EQ(z.count_zeros(), 15u);
    EXPECT_DOUBLE_EQ(z.sparsity(), 15.0 / 16.0);
}

TEST(Ldlt, SolveRecoversKnownSolution)
{
    const Matrix a = random_spd_matrix(8, 21);
    const Vector x_true = random_vector(8, 22);
    const Vector b = a * x_true;
    Ldlt f(a);
    ASSERT_TRUE(f.ok());
    const Vector x = f.solve(b);
    EXPECT_LT(max_abs_diff(x, x_true), 1e-9);
}

TEST(Ldlt, InverseTimesMatrixIsIdentity)
{
    const Matrix a = random_spd_matrix(7, 33);
    Ldlt f(a);
    ASSERT_TRUE(f.ok());
    const Matrix id = a * f.inverse();
    EXPECT_LT(max_abs_diff(id, Matrix::identity(7)), 1e-9);
}

TEST(Ldlt, RejectsIndefiniteMatrix)
{
    Matrix a = Matrix::identity(3);
    a(1, 1) = -2.0;
    EXPECT_FALSE(Ldlt(a).ok());
}

TEST(Ldlt, FactorsReassembleTheMatrix)
{
    const Matrix a = random_spd_matrix(6, 44);
    Ldlt f(a);
    ASSERT_TRUE(f.ok());
    Matrix d(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        d(i, i) = f.d()[i];
    const Matrix rebuilt = f.l() * d * f.l().transposed();
    EXPECT_LT(max_abs_diff(rebuilt, a), 1e-9);
}

TEST(Ldlt, RefactorizeMatchesFreshFactorization)
{
    Matrix indefinite = Matrix::identity(4);
    indefinite(2, 2) = -1.0;
    const Matrix a = random_spd_matrix(4, 45);
    Ldlt f;
    EXPECT_FALSE(f.factorize(indefinite));
    EXPECT_TRUE(f.factorize(a));
    const Ldlt fresh(a);
    EXPECT_EQ(max_abs_diff(f.l(), fresh.l()), 0.0);
    EXPECT_EQ(max_abs_diff(f.d(), fresh.d()), 0.0);
}

TEST(Ldlt, MultiRhsSolveIsBitIdenticalPerColumn)
{
    const Matrix a = random_spd_matrix(7, 46);
    const Matrix b = random_matrix(7, 5, 47);
    const Ldlt f(a);
    ASSERT_TRUE(f.ok());
    Matrix x = b;
    f.solve_in_place(x);
    const Matrix y = f.solve(b);
    for (std::size_t c = 0; c < b.cols(); ++c) {
        const Vector col = f.solve(b.col(c));
        for (std::size_t i = 0; i < b.rows(); ++i) {
            EXPECT_EQ(x(i, c), col[i]) << i << "," << c;
            EXPECT_EQ(y(i, c), col[i]) << i << "," << c;
        }
    }
}

TEST(Llt, AgreesWithLdltAndReassembles)
{
    const Matrix a = random_spd_matrix(8, 61);
    Llt llt(a);
    Ldlt ldlt(a);
    ASSERT_TRUE(llt.ok());
    const Vector b = random_vector(8, 62);
    EXPECT_LT(max_abs_diff(llt.solve(b), ldlt.solve(b)), 1e-9);
    EXPECT_LT(max_abs_diff(llt.l() * llt.l().transposed(), a), 1e-9);
}

TEST(Llt, RejectsIndefiniteMatrix)
{
    Matrix a = Matrix::identity(3);
    a(2, 2) = -1.0;
    EXPECT_FALSE(Llt(a).ok());
}

TEST(Lu, AgreesWithLdltOnSpdMatrices)
{
    const Matrix a = random_spd_matrix(9, 55);
    Ldlt ldlt(a);
    Lu lu(a);
    ASSERT_TRUE(ldlt.ok());
    ASSERT_TRUE(lu.ok());
    EXPECT_LT(max_abs_diff(ldlt.inverse(), lu.inverse()), 1e-8);
}

TEST(Lu, HandlesPermutationRequiringPivoting)
{
    Matrix a(3, 3);
    a(0, 1) = 1.0; // zero on the leading diagonal forces a pivot
    a(1, 0) = 2.0;
    a(2, 2) = 3.0;
    Lu lu(a);
    ASSERT_TRUE(lu.ok());
    const Vector x = lu.solve(Vector{2.0, 4.0, 9.0});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
    EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Lu, SingularMatrixDetected)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_FALSE(Lu(a).ok());
    EXPECT_DOUBLE_EQ(Lu(a).determinant(), 0.0);
}

TEST(Lu, DeterminantOfKnownMatrix)
{
    Matrix a(2, 2);
    a(0, 0) = 3.0;
    a(0, 1) = 1.0;
    a(1, 0) = 2.0;
    a(1, 1) = 5.0;
    EXPECT_NEAR(Lu(a).determinant(), 13.0, 1e-12);
}

TEST(BlockDiagonalInverse, MatchesDenseInverse)
{
    // Assemble a block-diagonal SPD matrix with spans 3, 2, 4.
    Matrix a(9, 9);
    a.set_block(0, 0, random_spd_matrix(3, 1));
    a.set_block(3, 3, random_spd_matrix(2, 2));
    a.set_block(5, 5, random_spd_matrix(4, 3));
    const std::vector<std::pair<std::size_t, std::size_t>> spans{
        {0, 3}, {3, 5}, {5, 9}};
    const Matrix bi = block_diagonal_inverse(a, spans);
    const Matrix di = spd_inverse(a);
    EXPECT_LT(max_abs_diff(bi, di), 1e-9);
}

TEST(RandomHelpers, Deterministic)
{
    EXPECT_EQ(max_abs_diff(random_matrix(4, 4, 9), random_matrix(4, 4, 9)),
              0.0);
    EXPECT_NE(max_abs_diff(random_matrix(4, 4, 9), random_matrix(4, 4, 10)),
              0.0);
}

TEST(RandomHelpers, SpdIsActuallySpd)
{
    for (std::uint32_t seed = 0; seed < 8; ++seed)
        EXPECT_TRUE(Ldlt(random_spd_matrix(6, seed)).ok()) << seed;
}

} // namespace
} // namespace linalg
} // namespace roboshape
