/**
 * @file
 * Implementation of LDL^T and LU factorizations.
 */

#include "linalg/factorization.h"

#include <cmath>

#include "linalg/tiles.h"

namespace roboshape {
namespace linalg {

bool
Ldlt::factorize(const Matrix &a)
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    l_.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        l_(i, i) = 1.0;
    d_.resize(n);
    ok_ = true;

    for (std::size_t j = 0; j < n; ++j) {
        double dj = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            dj -= l_(j, k) * l_(j, k) * d_[k];
        d_[j] = dj;
        if (!(dj > 0.0)) {
            ok_ = false;
            return ok_;
        }
        for (std::size_t i = j + 1; i < n; ++i) {
            double lij = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                lij -= l_(i, k) * l_(j, k) * d_[k];
            l_(i, j) = lij / dj;
        }
    }
    return ok_;
}

Vector
Ldlt::solve(const Vector &b) const
{
    assert(ok_ && b.size() == d_.size());
    const std::size_t n = d_.size();
    Vector x = b;
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k)
            x[i] -= l_(i, k) * x[k];
    // Diagonal: D z = y.
    for (std::size_t i = 0; i < n; ++i)
        x[i] /= d_[i];
    // Backward substitution: L^T x = z.
    for (std::size_t ii = n; ii-- > 0;)
        for (std::size_t k = ii + 1; k < n; ++k)
            x[ii] -= l_(k, ii) * x[k];
    return x;
}

Matrix
Ldlt::solve(const Matrix &b) const
{
    Matrix x = b;
    solve_in_place(x);
    return x;
}

namespace {

/**
 * One C-column tile of one row's substitution step: row[c] is divided by
 * *divisor (when given), then has coef(k) * x(k, c) subtracted for k in
 * [k_begin, k_end) ascending, where coef(k) = coef[k * coef_stride] and
 * x(k, c) = x[k * ldx + c].  The row stays in registers throughout and
 * is stored once.
 */
template <std::size_t C>
void
substitute_row(double *row, const double *divisor, const double *coef,
               std::size_t coef_stride, const double *x, std::size_t ldx,
               std::size_t k_begin, std::size_t k_end)
{
    double acc[C];
    for (std::size_t c = 0; c < C; ++c)
        acc[c] = row[c];
    if (divisor != nullptr)
        for (std::size_t c = 0; c < C; ++c)
            acc[c] /= *divisor;
    for (std::size_t k = k_begin; k < k_end; ++k) {
        const double lk = coef[k * coef_stride];
        for (std::size_t c = 0; c < C; ++c)
            acc[c] -= lk * x[k * ldx + c];
    }
    for (std::size_t c = 0; c < C; ++c)
        row[c] = acc[c];
}

} // namespace

void
Ldlt::solve_in_place(Matrix &b) const
{
    assert(ok_ && b.rows() == d_.size());
    const std::size_t n = d_.size();
    const std::size_t m = b.cols();
    if (n == 0)
        return; // no rows, and no storage to offset the tiles into
    const double *l = l_.data().data();
    const double *d = d_.data().data();
    double *x = b.data().data();
    // Columns are independent, so each column tile runs the whole solve;
    // per column, the same sequence of updates as the vector solve above.
    tiles::for_each_column_tile(m, [&](auto width, std::size_t j) {
        constexpr std::size_t w = decltype(width)::value;
        double *xj = x + j;
        // Forward substitution, L y = b; row 0 has no terms.
        for (std::size_t i = 1; i < n; ++i)
            substitute_row<w>(xj + i * m, nullptr, l + i * n, 1, xj, m, 0, i);
        // Diagonal and backward substitution, D z = y and L^T x = z: row
        // i is divided by d(i), then takes its terms from the final rows
        // below it, so it sees the vector solve's operations in order.
        for (std::size_t i = n; i-- > 0;)
            substitute_row<w>(xj + i * m, d + i, l + i, n, xj, m, i + 1, n);
    });
}

Matrix
Ldlt::inverse() const
{
    return solve(Matrix::identity(d_.size()));
}

Llt::Llt(const Matrix &a)
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    l_.resize(n, n);
    ok_ = true;
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (!(diag > 0.0)) {
            ok_ = false;
            return;
        }
        l_(j, j) = std::sqrt(diag);
        for (std::size_t i = j + 1; i < n; ++i) {
            double v = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                v -= l_(i, k) * l_(j, k);
            l_(i, j) = v / l_(j, j);
        }
    }
}

Vector
Llt::solve(const Vector &b) const
{
    assert(ok_ && b.size() == l_.rows());
    const std::size_t n = l_.rows();
    Vector x = b;
    // L y = b.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < i; ++k)
            x[i] -= l_(i, k) * x[k];
        x[i] /= l_(i, i);
    }
    // L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k)
            x[ii] -= l_(k, ii) * x[k];
        x[ii] /= l_(ii, ii);
    }
    return x;
}

Lu::Lu(const Matrix &a) : lu_(a), piv_(a.rows())
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    for (std::size_t i = 0; i < n; ++i)
        piv_[i] = i;
    ok_ = true;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        std::size_t p = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            if (std::abs(lu_(i, k)) > best) {
                best = std::abs(lu_(i, k));
                p = i;
            }
        }
        if (best == 0.0) {
            ok_ = false;
            return;
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(lu_(p, j), lu_(k, j));
            std::swap(piv_[p], piv_[k]);
            pivot_sign_ = -pivot_sign_;
        }
        for (std::size_t i = k + 1; i < n; ++i) {
            lu_(i, k) /= lu_(k, k);
            const double m = lu_(i, k);
            if (m == 0.0)
                continue;
            for (std::size_t j = k + 1; j < n; ++j)
                lu_(i, j) -= m * lu_(k, j);
        }
    }
}

Vector
Lu::solve(const Vector &b) const
{
    assert(ok_ && b.size() == piv_.size());
    const std::size_t n = piv_.size();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = b[piv_[i]];
    // L y = P b.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k)
            x[i] -= lu_(i, k) * x[k];
    // U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k)
            x[ii] -= lu_(ii, k) * x[k];
        x[ii] /= lu_(ii, ii);
    }
    return x;
}

Matrix
Lu::solve(const Matrix &b) const
{
    assert(b.rows() == piv_.size());
    Matrix out(b.rows(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c)
        out.set_col(c, solve(b.col(c)));
    return out;
}

Matrix
Lu::inverse() const
{
    return solve(Matrix::identity(piv_.size()));
}

double
Lu::determinant() const
{
    if (!ok_)
        return 0.0;
    double det = pivot_sign_;
    for (std::size_t i = 0; i < piv_.size(); ++i)
        det *= lu_(i, i);
    return det;
}

Matrix
spd_inverse(const Matrix &a)
{
    Ldlt f(a);
    assert(f.ok());
    return f.inverse();
}

Matrix
block_diagonal_inverse(
    const Matrix &a,
    const std::vector<std::pair<std::size_t, std::size_t>> &spans)
{
    assert(a.rows() == a.cols());
    Matrix out(a.rows(), a.cols());
    for (const auto &[begin, end] : spans) {
        assert(begin < end && end <= a.rows());
        const std::size_t len = end - begin;
        Matrix sub = a.block(begin, begin, len, len);
        out.set_block(begin, begin, spd_inverse(sub));
    }
    return out;
}

} // namespace linalg
} // namespace roboshape
