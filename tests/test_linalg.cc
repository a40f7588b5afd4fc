/**
 * @file
 * Unit tests for the dense linear-algebra substrate.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/blocked.h"
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

/** Right-hand column counts that cover vector bodies and scalar tails. */
constexpr std::size_t kKernelColumns[] = {1, 2, 3, 7, 8, 13, 31, 38};

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

/** A random matrix with a third of its entries zero, one of them -0. */
Matrix
random_matrix_with_zeros(std::size_t rows, std::size_t cols,
                         std::uint32_t seed)
{
    Matrix m = random_matrix(rows, cols, seed);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            if ((i + 2 * j) % 3 == 0)
                m(i, j) = 0.0;
    m(0, 0) = -0.0;
    return m;
}

TEST(Matrix, InPlaceProductsMatchPlainLoopsBitwise)
{
    // References written out here, not the library's allocating forms
    // (which call the same kernels): each sum starts at 0 and adds every
    // term, zero or not, in ascending order.
    for (const std::size_t cols : kKernelColumns) {
        const std::string what = std::to_string(cols) + " columns";
        const auto seed = static_cast<std::uint32_t>(cols);
        const Matrix a = random_matrix_with_zeros(5, 9, seed);
        const Matrix at = random_matrix_with_zeros(9, 5, seed + 1);
        const Matrix b = random_matrix(9, cols, seed + 2);
        const Matrix wide = random_matrix_with_zeros(9, cols, seed + 3);
        const Vector v = random_vector(9, seed + 4);

        Matrix want(5, cols), want_t(5, cols);
        Vector want_v(cols);
        for (std::size_t i = 0; i < 5; ++i)
            for (std::size_t j = 0; j < cols; ++j) {
                double acc = 0.0, acc_t = 0.0;
                for (std::size_t k = 0; k < 9; ++k) {
                    acc += a(i, k) * b(k, j);
                    acc_t += at(k, i) * b(k, j);
                }
                want(i, j) = acc;
                want_t(i, j) = acc_t;
            }
        for (std::size_t i = 0; i < cols; ++i) {
            double acc = 0.0;
            for (std::size_t k = 0; k < 9; ++k)
                acc += wide(k, i) * v[k];
            want_v[i] = acc;
        }

        Matrix out;
        multiply_into(a, b, out);
        EXPECT_EQ(out.rows(), 5u) << what;
        EXPECT_TRUE(bitwise_equal(out.data(), want.data())) << what;
        transposed_multiply_into(at, b, out);
        EXPECT_EQ(out.rows(), 5u) << what;
        EXPECT_TRUE(bitwise_equal(out.data(), want_t.data())) << what;
        Vector vout;
        transposed_multiply_into(wide, v, vout);
        EXPECT_TRUE(bitwise_equal(vout.data(), want_v.data())) << what;
    }
}

TEST(Ldlt, SolveInPlaceMatchesPlainSubstitutionBitwise)
{
    const Matrix spd = random_spd_matrix(7, 41);
    const Ldlt f(spd);
    ASSERT_TRUE(f.ok());
    const Matrix &l = f.l();
    for (const std::size_t cols : kKernelColumns) {
        const Matrix b =
            random_matrix(7, cols, static_cast<std::uint32_t>(cols) + 42);
        // Forward substitution, diagonal, backward substitution, column
        // by column.
        Matrix want = b;
        for (std::size_t c = 0; c < cols; ++c) {
            for (std::size_t i = 0; i < 7; ++i)
                for (std::size_t k = 0; k < i; ++k)
                    want(i, c) -= l(i, k) * want(k, c);
            for (std::size_t i = 0; i < 7; ++i)
                want(i, c) /= f.d()[i];
            for (std::size_t i = 7; i-- > 0;)
                for (std::size_t k = i + 1; k < 7; ++k)
                    want(i, c) -= l(k, i) * want(k, c);
        }
        Matrix x = b;
        f.solve_in_place(x);
        EXPECT_TRUE(bitwise_equal(x.data(), want.data()))
            << cols << " columns";
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

TEST(BlockPattern, HandcraftedMask)
{
    // 5x5 matrix with a dense 2x2 top-left corner and one entry at (4, 4).
    Matrix m(5, 5);
    m(0, 0) = m(0, 1) = m(1, 0) = m(1, 1) = 1.0;
    m(4, 4) = 2.0;
    BlockPattern p(m, 2);
    EXPECT_EQ(p.block_rows(), 3u);
    EXPECT_EQ(p.block_cols(), 3u);
    EXPECT_TRUE(p.nonzero(0, 0));
    EXPECT_FALSE(p.nonzero(0, 1));
    EXPECT_TRUE(p.nonzero(2, 2));
    EXPECT_EQ(p.nonzero_blocks(), 2u);
    EXPECT_EQ(p.zero_blocks(), 7u);
    // Tile (2,2) covers only element (4,4) of the matrix; 3 of its 4 slots
    // are padding.
    EXPECT_EQ(p.padded_zero_elements(), 3u);
}

TEST(BlockPattern, BlockSizeOneHasNoPadding)
{
    const Matrix m = random_matrix(7, 7, 77);
    BlockPattern p(m, 1);
    EXPECT_EQ(p.nonzero_blocks(), 49u);
    EXPECT_EQ(p.padded_zero_elements(), 0u);
}

TEST(BlockPattern, AsciiRendering)
{
    Matrix m(2, 2);
    m(0, 0) = 1.0;
    BlockPattern p(m, 1);
    EXPECT_EQ(p.to_ascii(), "X.\n..\n");
}

/** Blocked multiply must equal dense multiply for any block size. */
class BlockedMultiplyEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BlockedMultiplyEquivalence, MatchesDenseProduct)
{
    const int n = std::get<0>(GetParam());
    const int block = std::get<1>(GetParam());
    // Build a limb-sparse matrix: zero out a corner block to mimic mass-
    // matrix structure.
    Matrix a = random_matrix(n, n, 100 + n);
    for (int i = n / 2; i < n; ++i)
        for (int j = 0; j < n / 2; ++j)
            a(i, j) = a(j, i) = 0.0;
    const Matrix b = random_matrix(n, n, 200 + n);

    BlockMultiplyStats stats;
    const Matrix blocked = blocked_multiply(a, b, block, &stats);
    const Matrix dense = a * b;
    EXPECT_LT(max_abs_diff(blocked, dense), 1e-10)
        << "n=" << n << " block=" << block;
    EXPECT_GT(stats.block_macs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, BlockedMultiplyEquivalence,
    ::testing::Combine(::testing::Values(5, 7, 12, 15, 19),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 10)));

TEST(BlockedMultiply, SkipsZeroBlocks)
{
    // Block-diagonal matrix: off-diagonal tile products must be NOPs.
    Matrix a(6, 6);
    a.set_block(0, 0, random_matrix(3, 3, 1));
    a.set_block(3, 3, random_matrix(3, 3, 2));
    const Matrix b = random_matrix(6, 6, 3);
    BlockMultiplyStats stats;
    blocked_multiply(a, b, 3, &stats);
    // A has 2 nonzero tiles of 4; B dense (4 tiles). Products: 2x2x2 = 8
    // total tile triples, of which a zero A-tile kills 4.
    EXPECT_EQ(stats.block_nops, 4u);
    EXPECT_EQ(stats.block_macs, 4u);
}

TEST(BlockedMultiply, RectangularOperands)
{
    const Matrix a = random_matrix(7, 12, 5);
    const Matrix b = random_matrix(12, 4, 6);
    const Matrix blocked = blocked_multiply(a, b, 5);
    EXPECT_LT(max_abs_diff(blocked, a * b), 1e-10);
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
