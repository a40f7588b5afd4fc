/**
 * @file
 * Dense factorizations and solvers for topology-sized matrices.
 *
 * The dynamics-gradient kernel (paper Alg. 1) needs the inverse of the
 * joint-space mass matrix.  Mass matrices are symmetric positive definite,
 * so the primary tool is an LDL^T (square-root-free Cholesky) factorization;
 * a partial-pivoting LU is provided for general matrices and as an
 * independent cross-check in tests.
 */

#ifndef ROBOSHAPE_LINALG_FACTORIZATION_H
#define ROBOSHAPE_LINALG_FACTORIZATION_H

#include "linalg/matrix.h"

namespace roboshape {
namespace linalg {

/**
 * LDL^T factorization of a symmetric positive-definite matrix.
 *
 * A = L * D * L^T with L unit lower triangular and D diagonal.
 */
class Ldlt
{
  public:
    /** An empty factorization; call factorize() before solving. */
    Ldlt() = default;

    /** Factorizes @p a.  @p a must be square and symmetric. */
    explicit Ldlt(const Matrix &a) { factorize(a); }

    /**
     * Factorizes @p a into this object's existing storage, so refactoring
     * a matrix of an already-seen size performs no heap allocation.
     * @return ok().
     */
    bool factorize(const Matrix &a);

    /** True when the factorization succeeded (no nonpositive pivot). */
    bool ok() const { return ok_; }

    /** Solves A x = b. */
    Vector solve(const Vector &b) const;

    /** Solves A X = B columnwise. */
    Matrix solve(const Matrix &b) const;

    /**
     * Solves A X = B for every column of @p b at once, overwriting @p b
     * with X.  Each column sees exactly the operations, in the same order,
     * of solve(const Vector &), so results are bit-identical to per-column
     * solves.
     */
    void solve_in_place(Matrix &b) const;

    /** @return A^-1 (solves against the identity). */
    Matrix inverse() const;

    /** Unit lower-triangular factor. */
    const Matrix &l() const { return l_; }

    /** Diagonal factor entries. */
    const Vector &d() const { return d_; }

  private:
    Matrix l_;
    Vector d_;
    bool ok_ = false;
};

/**
 * Cholesky factorization A = L L^T of a symmetric positive-definite
 * matrix (the square-root form of Ldlt; kept separate because the
 * accelerator's host-side solve uses whichever the platform library
 * offers).
 */
class Llt
{
  public:
    /** Factorizes @p a (square, symmetric, positive definite). */
    explicit Llt(const Matrix &a);

    /** True when the factorization succeeded. */
    bool ok() const { return ok_; }

    /** Solves A x = b. */
    Vector solve(const Vector &b) const;

    /** Lower-triangular factor. */
    const Matrix &l() const { return l_; }

  private:
    Matrix l_;
    bool ok_ = false;
};

/**
 * LU factorization with partial pivoting for general square matrices.
 */
class Lu
{
  public:
    /** Factorizes @p a (square). */
    explicit Lu(const Matrix &a);

    /** True when the matrix is nonsingular to working precision. */
    bool ok() const { return ok_; }

    /** Solves A x = b. */
    Vector solve(const Vector &b) const;

    /** Solves A X = B columnwise. */
    Matrix solve(const Matrix &b) const;

    /** @return A^-1. */
    Matrix inverse() const;

    /** Determinant of A. */
    double determinant() const;

  private:
    Matrix lu_;                   // packed L (unit diag implied) and U
    std::vector<std::size_t> piv_;
    int pivot_sign_ = 1;
    bool ok_ = false;
};

/**
 * Convenience SPD inverse via LDL^T.
 * Asserts on factorization failure in debug builds.
 */
Matrix spd_inverse(const Matrix &a);

/**
 * Block-diagonal-aware SPD inverse.
 *
 * When @p a has the limb-induced block-diagonal structure described in
 * paper Sec. 3.2 (independent limbs touch only diagonal blocks), the inverse
 * is itself block diagonal and can be computed block-by-block.  @p spans
 * gives the [begin, end) index range of each independent diagonal block.
 * Off-block entries of @p a are ignored (they must be zero for the result to
 * equal the dense inverse; tests enforce this).
 */
Matrix block_diagonal_inverse(
    const Matrix &a,
    const std::vector<std::pair<std::size_t, std::size_t>> &spans);

} // namespace linalg
} // namespace roboshape

#endif // ROBOSHAPE_LINALG_FACTORIZATION_H
