#include "anns/pq.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace ansmet::anns {

namespace {

/** Margin-protected threshold test (cf. et::boundExceeds). */
bool
boundExceedsPq(double bound, double threshold)
{
    return bound >= threshold + 1e-9 * (1.0 + std::abs(threshold));
}

} // namespace

PqIndex::PqIndex(const VectorSet &vs, Metric metric, PqParams params)
    : params_(params), metric_(metric), dims_(vs.dims()), n_(vs.size())
{
    ANSMET_CHECK(params.subspaces > 0 &&
                     vs.dims() % params.subspaces == 0,
                 "subspaces must divide dims");
    ANSMET_CHECK(params.codebookSize >= 2 &&
                 params.codebookSize <= 256);
    sub_dims_ = dims_ / params_.subspaces;
    codebooks_.resize(static_cast<std::size_t>(params_.subspaces) *
                      params_.codebookSize * sub_dims_);
    codes_.resize(n_ * params_.subspaces);
    train(vs);
    encode(vs);
}

void
PqIndex::train(const VectorSet &vs)
{
    Prng rng(params_.seed);
    std::vector<float> buf(dims_);

    for (unsigned s = 0; s < params_.subspaces; ++s) {
        const unsigned off = s * sub_dims_;
        // Init: distinct random sub-vectors.
        for (unsigned c = 0; c < params_.codebookSize; ++c) {
            const auto pick = static_cast<VectorId>(rng.below(n_));
            vs.toFloat(pick, buf.data());
            float *cw = codebooks_.data() +
                        (static_cast<std::size_t>(s) *
                             params_.codebookSize +
                         c) *
                            sub_dims_;
            std::copy(buf.begin() + off, buf.begin() + off + sub_dims_,
                      cw);
        }

        // Lloyd iterations on the sub-vectors.
        std::vector<unsigned> assign(n_, 0);
        for (unsigned iter = 0; iter < params_.kmeansIters; ++iter) {
            bool changed = false;
            for (std::size_t v = 0; v < n_; ++v) {
                vs.toFloat(static_cast<VectorId>(v), buf.data());
                double best = std::numeric_limits<double>::infinity();
                unsigned best_c = 0;
                for (unsigned c = 0; c < params_.codebookSize; ++c) {
                    const double d = l2Sq(buf.data() + off,
                                          codeword(s, c), sub_dims_);
                    if (d < best) {
                        best = d;
                        best_c = c;
                    }
                }
                if (assign[v] != best_c) {
                    assign[v] = best_c;
                    changed = true;
                }
            }
            if (!changed)
                break;

            std::vector<double> sums(
                static_cast<std::size_t>(params_.codebookSize) *
                    sub_dims_,
                0.0);
            std::vector<std::size_t> counts(params_.codebookSize, 0);
            for (std::size_t v = 0; v < n_; ++v) {
                vs.toFloat(static_cast<VectorId>(v), buf.data());
                for (unsigned i = 0; i < sub_dims_; ++i)
                    sums[assign[v] * sub_dims_ + i] += buf[off + i];
                ++counts[assign[v]];
            }
            for (unsigned c = 0; c < params_.codebookSize; ++c) {
                if (counts[c] == 0)
                    continue;
                float *cw = codebooks_.data() +
                            (static_cast<std::size_t>(s) *
                                 params_.codebookSize +
                             c) *
                                sub_dims_;
                for (unsigned i = 0; i < sub_dims_; ++i) {
                    cw[i] = static_cast<float>(
                        sums[c * sub_dims_ + i] /
                        static_cast<double>(counts[c]));
                }
            }
        }
    }
}

void
PqIndex::encode(const VectorSet &vs)
{
    std::vector<float> buf(dims_);
    for (std::size_t v = 0; v < n_; ++v) {
        vs.toFloat(static_cast<VectorId>(v), buf.data());
        for (unsigned s = 0; s < params_.subspaces; ++s) {
            const unsigned off = s * sub_dims_;
            double best = std::numeric_limits<double>::infinity();
            unsigned best_c = 0;
            for (unsigned c = 0; c < params_.codebookSize; ++c) {
                const double d =
                    l2Sq(buf.data() + off, codeword(s, c), sub_dims_);
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            codes_[v * params_.subspaces + s] =
                static_cast<std::uint8_t>(best_c);
        }
    }
}

std::vector<double>
PqIndex::distanceTable(const float *query) const
{
    std::vector<double> table(static_cast<std::size_t>(params_.subspaces) *
                              params_.codebookSize);
    for (unsigned s = 0; s < params_.subspaces; ++s) {
        const unsigned off = s * sub_dims_;
        for (unsigned c = 0; c < params_.codebookSize; ++c) {
            table[s * params_.codebookSize + c] =
                distance(metric_, query + off, codeword(s, c), sub_dims_);
        }
    }
    return table;
}

std::vector<double>
PqIndex::rowMinima(const std::vector<double> &table) const
{
    std::vector<double> minima(params_.subspaces);
    for (unsigned s = 0; s < params_.subspaces; ++s) {
        double m = table[s * params_.codebookSize];
        for (unsigned c = 1; c < params_.codebookSize; ++c)
            m = std::min(m, table[s * params_.codebookSize + c]);
        minima[s] = m;
    }
    return minima;
}

double
PqIndex::partialLowerBound(const std::vector<double> &table,
                           const std::vector<double> &row_minima,
                           VectorId v, unsigned fetched) const
{
    double acc = 0.0;
    for (unsigned s = 0; s < params_.subspaces; ++s) {
        acc += s < fetched
                   ? table[s * params_.codebookSize + code(v, s)]
                   : row_minima[s];
    }
    return acc;
}

std::vector<Neighbor>
PqIndex::search(const float *query, std::size_t k) const
{
    const auto table = distanceTable(query);
    ResultSet rs(k);
    for (std::size_t v = 0; v < n_; ++v) {
        rs.offer({tableDistance(table, static_cast<VectorId>(v)),
                  static_cast<VectorId>(v)});
    }
    return rs.sorted();
}

std::vector<Neighbor>
PqIndex::searchEt(const float *query, std::size_t k,
                  std::uint64_t *reads_out) const
{
    const auto table = distanceTable(query);
    const auto minima = rowMinima(table);

    // Sum of row minima: the part of the bound common to all vectors.
    double minima_tail = 0.0;
    for (const double m : minima)
        minima_tail += m;

    ResultSet rs(k);
    std::uint64_t reads = 0;
    for (std::size_t v = 0; v < n_; ++v) {
        const auto id = static_cast<VectorId>(v);
        // Incremental bound: replace one row minimum with the exact
        // table entry per fetched code; terminate on threshold cross.
        double bound = minima_tail;
        bool dropped = false;
        for (unsigned s = 0; s < params_.subspaces; ++s) {
            if (boundExceedsPq(bound, rs.worst())) {
                dropped = true;
                break;
            }
            ++reads;
            bound += table[s * params_.codebookSize + code(id, s)] -
                     minima[s];
        }
        if (!dropped)
            rs.offer({bound, id});
    }
    if (reads_out)
        *reads_out += reads;
    return rs.sorted();
}

} // namespace ansmet::anns
