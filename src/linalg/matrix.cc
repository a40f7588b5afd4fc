/**
 * @file
 * Implementation of dense matrix and vector operations.
 */

#include "linalg/matrix.h"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "linalg/tiles.h"

namespace roboshape {
namespace linalg {

Vector &
Vector::operator+=(const Vector &rhs)
{
    assert(size() == rhs.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] += rhs.data_[i];
    return *this;
}

Vector &
Vector::operator-=(const Vector &rhs)
{
    assert(size() == rhs.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] -= rhs.data_[i];
    return *this;
}

Vector &
Vector::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

double
Vector::dot(const Vector &rhs) const
{
    assert(size() == rhs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += data_[i] * rhs.data_[i];
    return acc;
}

double
Vector::norm() const
{
    return std::sqrt(dot(*this));
}

double
Vector::max_abs() const
{
    double m = 0.0;
    for (double x : data_)
        m = std::max(m, std::abs(x));
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

Matrix &
Matrix::operator+=(const Matrix &rhs)
{
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += rhs.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &rhs)
{
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= rhs.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

Matrix
Matrix::operator*(const Matrix &rhs) const
{
    Matrix out;
    multiply_into(*this, rhs, out);
    return out;
}

Vector
Matrix::operator*(const Vector &rhs) const
{
    assert(cols_ == rhs.size());
    Vector out(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < cols_; ++j)
            acc += (*this)(i, j) * rhs[j];
        out[i] = acc;
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

double
Matrix::frobenius_norm() const
{
    double acc = 0.0;
    for (double x : data_)
        acc += x * x;
    return std::sqrt(acc);
}

double
Matrix::max_abs() const
{
    double m = 0.0;
    for (double x : data_)
        m = std::max(m, std::abs(x));
    return m;
}

Matrix
Matrix::block(std::size_t r0, std::size_t c0, std::size_t rows,
              std::size_t cols) const
{
    assert(r0 + rows <= rows_ && c0 + cols <= cols_);
    Matrix out(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            out(i, j) = (*this)(r0 + i, c0 + j);
    return out;
}

void
Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix &b)
{
    assert(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_);
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            (*this)(r0 + i, c0 + j) = b(i, j);
}

Vector
Matrix::col(std::size_t c) const
{
    assert(c < cols_);
    Vector out(rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        out[i] = (*this)(i, c);
    return out;
}

void
Matrix::set_col(std::size_t c, const Vector &v)
{
    assert(c < cols_ && v.size() == rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        (*this)(i, c) = v[i];
}

Vector
Matrix::row(std::size_t r) const
{
    assert(r < rows_);
    Vector out(cols_);
    for (std::size_t j = 0; j < cols_; ++j)
        out[j] = (*this)(r, j);
    return out;
}

bool
Matrix::is_symmetric(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i + 1; j < cols_; ++j)
            if (std::abs((*this)(i, j) - (*this)(j, i)) > tol)
                return false;
    return true;
}

std::size_t
Matrix::count_zeros(double tol) const
{
    std::size_t n = 0;
    for (double x : data_)
        if (std::abs(x) <= tol)
            ++n;
    return n;
}

double
Matrix::sparsity(double tol) const
{
    if (data_.empty())
        return 0.0;
    return static_cast<double>(count_zeros(tol)) /
           static_cast<double>(data_.size());
}

std::string
Matrix::to_string(int precision) const
{
    std::ostringstream os;
    os << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        os << (i == 0 ? "[" : " ");
        for (std::size_t j = 0; j < cols_; ++j)
            os << std::setw(precision + 6) << (*this)(i, j);
        os << (i + 1 == rows_ ? " ]" : "\n");
    }
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const Matrix &m)
{
    return os << m.to_string();
}

std::ostream &
operator<<(std::ostream &os, const Vector &v)
{
    // Human-readable "[1, 2, 3]" debug rendering, not a JSON artifact.
    os << "["; // NOLINT(json-writer-only)
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    return os << "]";
}

namespace {

/** Rows of a product tile; a trailing odd row takes a one-row tile. */
constexpr std::size_t kTileRows = 2;

/**
 * One R x C tile of a product: out(r, c) = sum over k of
 * op(a)(r, k) * b(k, c), where op(a)(r, k) = a[r * row_stride +
 * k * k_stride], b(k, c) = b[k * ldb + c] and out(r, c) =
 * out[r * ldo + c].  Each entry starts at +0 and adds its terms in
 * ascending k; a zero op(a)(r, k) skips row r's term, never the tile's.
 */
template <std::size_t R, std::size_t C>
void
product_tile(const double *a, std::size_t row_stride, std::size_t k_stride,
             std::size_t depth, const double *b, std::size_t ldb,
             double *out, std::size_t ldo)
{
    double acc[R][C] = {};
    for (std::size_t k = 0; k < depth; ++k) {
        const double *bk = b + k * ldb;
        for (std::size_t r = 0; r < R; ++r) {
            const double ark = a[r * row_stride + k * k_stride];
            if (ark == 0.0)
                continue;
            for (std::size_t c = 0; c < C; ++c)
                acc[r][c] += ark * bk[c];
        }
    }
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t c = 0; c < C; ++c)
            out[r * ldo + c] = acc[r][c];
}

/**
 * out = op(a) * b for the rows x depth operand op(a)(i, k) =
 * a[i * row_stride + k * k_stride]: (a.cols(), 1) reads a, (1, a.cols())
 * reads a^T without forming it.
 */
void
tiled_product(const Matrix &a, std::size_t rows, std::size_t depth,
              std::size_t row_stride, std::size_t k_stride, const Matrix &b,
              Matrix &out)
{
    const std::size_t cols = b.cols();
    out.resize(rows, cols);
    if (depth == 0)
        return; // every entry is the empty sum, +0
    const double *pa = a.data().data();
    const double *pb = b.data().data();
    double *po = out.data().data();
    const auto row_block = [&](auto height, std::size_t i) {
        tiles::for_each_column_tile(cols, [&](auto width, std::size_t j) {
            product_tile<decltype(height)::value, decltype(width)::value>(
                pa + i * row_stride, row_stride, k_stride, depth, pb + j,
                cols, po + i * cols + j, cols);
        });
    };
    std::size_t i = 0;
    for (; i + kTileRows <= rows; i += kTileRows)
        row_block(std::integral_constant<std::size_t, kTileRows>{}, i);
    if (i < rows)
        row_block(std::integral_constant<std::size_t, 1>{}, i);
}

} // namespace

void
multiply_into(const Matrix &a, const Matrix &b, Matrix &out)
{
    assert(a.cols() == b.rows() && &out != &a && &out != &b);
    tiled_product(a, a.rows(), a.cols(), a.cols(), 1, b, out);
}

void
transposed_multiply_into(const Matrix &a, const Matrix &b, Matrix &out)
{
    assert(a.rows() == b.rows() && &out != &a && &out != &b);
    tiled_product(a, a.cols(), a.rows(), 1, a.cols(), b, out);
}

void
transposed_multiply_into(const Matrix &a, const Vector &v, Vector &out)
{
    assert(a.rows() == v.size() && &out != &v);
    out.resize(a.cols());
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const double vk = v[k];
        for (std::size_t i = 0; i < a.cols(); ++i)
            out[i] += a(k, i) * vk;
    }
}

double
max_abs_diff(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    double m = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)));
    return m;
}

double
max_abs_diff(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

} // namespace linalg
} // namespace roboshape
