/**
 * @file
 * Dense dynamic-size matrix and vector types.
 *
 * RoboShape operates on small-to-moderate topology-sized matrices (the N x N
 * mass matrix and the N x N partial-derivative matrices, with N = total robot
 * links, typically 7-19).  The paper explicitly notes that heavyweight sparse
 * encodings (CSR etc.) are unsuitable at these sizes, so the library is built
 * on a plain dense row-major representation with explicit block-sparsity
 * helpers layered on top (see blocked.h).
 */

#ifndef ROBOSHAPE_LINALG_MATRIX_H
#define ROBOSHAPE_LINALG_MATRIX_H

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace roboshape {
namespace linalg {

class Matrix;

/**
 * Dense dynamic-size column vector of doubles.
 */
class Vector
{
  public:
    /** Creates an empty (size-0) vector. */
    Vector() = default;

    /** Creates a vector of @p n zeros. */
    explicit Vector(std::size_t n) : data_(n, 0.0) {}

    /** Creates a vector from an explicit element list. */
    Vector(std::initializer_list<double> values) : data_(values) {}

    /** @return number of elements. */
    std::size_t size() const { return data_.size(); }

    double &operator[](std::size_t i) { assert(i < size()); return data_[i]; }
    double operator[](std::size_t i) const
    {
        assert(i < size());
        return data_[i];
    }

    /** Resizes to @p n elements, zero-filling the whole vector. */
    void resize(std::size_t n) { data_.assign(n, 0.0); }

    /** Sets every element to zero without changing the size. */
    void set_zero() { data_.assign(data_.size(), 0.0); }

    Vector &operator+=(const Vector &rhs);
    Vector &operator-=(const Vector &rhs);
    Vector &operator*=(double s);

    friend Vector operator+(Vector lhs, const Vector &rhs)
    {
        lhs += rhs;
        return lhs;
    }
    friend Vector operator-(Vector lhs, const Vector &rhs)
    {
        lhs -= rhs;
        return lhs;
    }
    friend Vector operator*(Vector lhs, double s)
    {
        lhs *= s;
        return lhs;
    }
    friend Vector operator*(double s, Vector rhs)
    {
        rhs *= s;
        return rhs;
    }

    /** Dot product; both vectors must have equal size. */
    double dot(const Vector &rhs) const;

    /** Euclidean (L2) norm. */
    double norm() const;

    /** Largest absolute element, 0 for an empty vector. */
    double max_abs() const;

    /** Direct access to the underlying storage. */
    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

  private:
    std::vector<double> data_;
};

/**
 * Dense dynamic-size row-major matrix of doubles.
 */
class Matrix
{
  public:
    /** Creates an empty (0 x 0) matrix. */
    Matrix() = default;

    /** Creates a @p rows x @p cols matrix of zeros. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {
    }

    /** @return the n x n (square) identity matrix. */
    static Matrix identity(std::size_t n);

    /** @return number of rows. */
    std::size_t rows() const { return rows_; }
    /** @return number of columns. */
    std::size_t cols() const { return cols_; }

    double &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Resizes to rows x cols, zero-filling the whole matrix. */
    void resize(std::size_t rows, std::size_t cols);

    /** Sets every element to zero without changing dimensions. */
    void set_zero() { data_.assign(data_.size(), 0.0); }

    Matrix &operator+=(const Matrix &rhs);
    Matrix &operator-=(const Matrix &rhs);
    Matrix &operator*=(double s);

    friend Matrix operator+(Matrix lhs, const Matrix &rhs)
    {
        lhs += rhs;
        return lhs;
    }
    friend Matrix operator-(Matrix lhs, const Matrix &rhs)
    {
        lhs -= rhs;
        return lhs;
    }
    friend Matrix operator*(Matrix lhs, double s)
    {
        lhs *= s;
        return lhs;
    }
    friend Matrix operator*(double s, Matrix rhs)
    {
        rhs *= s;
        return rhs;
    }

    /** Dense matrix-matrix product. */
    Matrix operator*(const Matrix &rhs) const;

    /** Dense matrix-vector product. */
    Vector operator*(const Vector &rhs) const;

    /** @return the transpose. */
    Matrix transposed() const;

    /** Frobenius norm. */
    double frobenius_norm() const;

    /** Largest absolute element, 0 for an empty matrix. */
    double max_abs() const;

    /**
     * Copies the @p rows x @p cols submatrix whose top-left corner is at
     * (@p r0, @p c0).  Reads outside the matrix are an error.
     *
     * Note block(), col(), and row() return freshly allocated copies, not
     * views; in hot loops prefer operator() element access or the
     * in-place set_block()/set_col() writers over copy-modify-write.
     */
    Matrix block(std::size_t r0, std::size_t c0, std::size_t rows,
                 std::size_t cols) const;

    /** Writes @p b into this matrix with top-left corner at (r0, c0). */
    void set_block(std::size_t r0, std::size_t c0, const Matrix &b);

    /** Copies column @p c into a vector (see block() on copies). */
    Vector col(std::size_t c) const;

    /** Overwrites column @p c from a vector of length rows(). */
    void set_col(std::size_t c, const Vector &v);

    /** Copies row @p r into a vector (see block() on copies). */
    Vector row(std::size_t r) const;

    /** True when the matrix equals its transpose to tolerance @p tol. */
    bool is_symmetric(double tol = 1e-9) const;

    /** Count of elements with |x| <= @p tol. */
    std::size_t count_zeros(double tol = 0.0) const;

    /** Fraction of elements with |x| <= @p tol (0 for empty matrices). */
    double sparsity(double tol = 0.0) const;

    /** Direct access to the row-major storage. */
    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Human-readable rendering used by examples and failure messages. */
    std::string to_string(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

std::ostream &operator<<(std::ostream &os, const Matrix &m);
std::ostream &operator<<(std::ostream &os, const Vector &v);

/**
 * @p out = @p a * @p b, written into @p out's existing storage: once
 * @p out has held a product of this size the call allocates nothing.
 * Matrix::operator* calls it.  @p out must not alias an operand.
 *
 * Per-entry contract: each out(i, j) starts at +0 and adds
 * a(i, k) * b(k, j) in ascending k, except that a term whose a(i, k) is
 * zero (of either sign) is skipped.  The skip is per entry of a, so a
 * non-finite b(k, j) never reaches a row i whose a(i, k) is zero.  The
 * kernel holds blocks of out in register tiles while k ascends; that is
 * an implementation detail that neither splits nor reorders any sum, so
 * results are bit-identical to the plain loop for every input.
 */
void multiply_into(const Matrix &a, const Matrix &b, Matrix &out);

/**
 * @p out = @p a^T * @p b without forming a^T, allocation-free like
 * multiply_into and under its per-entry contract for a^T: each
 * out(i, j) starts at +0 and adds a(k, i) * b(k, j) in ascending k,
 * skipping the terms whose a(k, i) is zero.  So it is bit-identical to
 * `a.transposed() * b`.  @p out must not alias an operand.
 */
void transposed_multiply_into(const Matrix &a, const Matrix &b, Matrix &out);

/** @p out = @p a^T * @p v without forming a^T; bit-identical to
 *  `a.transposed() * v`. */
void transposed_multiply_into(const Matrix &a, const Vector &v, Vector &out);

/** Maximum absolute elementwise difference between two equal-sized
 *  matrices. */
double max_abs_diff(const Matrix &a, const Matrix &b);

/** Maximum absolute elementwise difference between two equal-sized
 *  vectors. */
double max_abs_diff(const Vector &a, const Vector &b);

} // namespace linalg
} // namespace roboshape

#endif // ROBOSHAPE_LINALG_MATRIX_H
