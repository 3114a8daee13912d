/**
 * @file
 * Bit-plane fetch plans and the transformed in-memory layout
 * (Section 4.2 of the paper).
 *
 * A FetchPlanSpec describes how a vector's bits are ordered in memory:
 * after an optional eliminated common prefix, level i stores the next
 * steps[i] most significant key bits of *every* dimension, packed into
 * 64 B lines of floor(512 / bits) elements each (with padding, exactly
 * the paper's m_i = |64*8 / n_i| rule). Fetching proceeds line by
 * line: level 0's lines first (covering all dims), then level 1's, and
 * so on, refining every dimension's known prefix.
 *
 * The plain/original layout is the degenerate plan with a single step
 * of the full key width: each line then holds complete elements of a
 * few dimensions, which is exactly the partial-dimension-only scheme
 * (NDP-DimET) when bound checks run per line, and NDP-Base without.
 */

#ifndef ANSMET_ET_LAYOUT_H
#define ANSMET_ET_LAYOUT_H

#include <numeric>
#include <vector>

#include "anns/vector.h"
#include "common/bitops.h"
#include "common/check.h"
#include "common/types.h"
#include "et/sortable.h"

namespace ansmet::et {

/** How a vector's bits are chunked and ordered in memory. */
struct FetchPlanSpec
{
    ScalarType type = ScalarType::kFp32;
    unsigned dims = 0;
    unsigned prefixLen = 0;        //!< eliminated common-prefix bits
    std::vector<unsigned> steps;   //!< per-level key bits per element
    bool metaBitmap = false;       //!< ETOpt outlier bitmap in level 0

    /** Plain layout: whole elements, dimension-major. */
    static FetchPlanSpec
    full(ScalarType t, unsigned dims)
    {
        return {t, dims, 0, {keyBits(t)}, false};
    }

    /** NDP-ET heuristic: 4-bit chunks for ints, 8-bit for floats. */
    static FetchPlanSpec
    heuristic(ScalarType t, unsigned dims)
    {
        const unsigned chunk =
            (t == ScalarType::kUint8 || t == ScalarType::kInt8) ? 4 : 8;
        FetchPlanSpec spec{t, dims, 0, {}, false};
        for (unsigned got = 0; got < keyBits(t); got += chunk)
            spec.steps.push_back(std::min(chunk, keyBits(t) - got));
        return spec;
    }

    /** NDP-BitET: fixed single-bit steps (BitNN-style bit-serial). */
    static FetchPlanSpec
    bitSerial(ScalarType t, unsigned dims)
    {
        FetchPlanSpec spec{t, dims, 0, {}, false};
        spec.steps.assign(keyBits(t), 1);
        return spec;
    }

    /**
     * Dual-granularity: after @p prefix_len eliminated bits, @p tc
     * coarse steps of @p nc bits, then fine steps of @p nf bits.
     */
    static FetchPlanSpec
    dual(ScalarType t, unsigned dims, unsigned prefix_len, unsigned nc,
         unsigned tc, unsigned nf, bool meta_bitmap = false)
    {
        ANSMET_CHECK(prefix_len < keyBits(t));
        FetchPlanSpec spec{t, dims, prefix_len, {}, meta_bitmap};
        unsigned remaining = keyBits(t) - prefix_len;
        for (unsigned i = 0; i < tc && remaining > 0; ++i) {
            const unsigned s = std::min(nc, remaining);
            spec.steps.push_back(s);
            remaining -= s;
        }
        while (remaining > 0) {
            const unsigned s = std::min(nf, remaining);
            spec.steps.push_back(s);
            remaining -= s;
        }
        return spec;
    }

    unsigned levels() const { return static_cast<unsigned>(steps.size()); }

    /** Storage bits per element in level @p l (incl. metadata bits). */
    unsigned
    levelElemBits(unsigned l) const
    {
        return steps[l] + (l == 0 && metaBitmap ? 1 : 0);
    }

    /** Elements per 64 B line in level @p l (the paper's m_i). */
    unsigned
    elemsPerLine(unsigned l) const
    {
        const unsigned b = levelElemBits(l);
        ANSMET_CHECK(b > 0 && b <= 512);
        return 512 / b;
    }

    /** 64 B lines occupied by level @p l. */
    unsigned
    linesInLevel(unsigned l) const
    {
        return static_cast<unsigned>(divCeil(dims, elemsPerLine(l)));
    }

    /** Total 64 B lines per vector under this layout. */
    unsigned
    totalLines() const
    {
        unsigned total = 0;
        for (unsigned l = 0; l < levels(); ++l)
            total += linesInLevel(l);
        return total;
    }

    /** Key bits known per element once levels [0, l] are fetched. */
    unsigned
    knownBitsAfterLevel(unsigned l) const
    {
        unsigned known = prefixLen;
        for (unsigned i = 0; i <= l; ++i)
            known += steps[i];
        return known;
    }

    /** Sanity: steps must cover exactly the non-eliminated bits. */
    bool
    valid() const
    {
        const unsigned sum =
            std::accumulate(steps.begin(), steps.end(), 0u);
        return dims > 0 && sum + prefixLen == keyBits(type);
    }
};

/** One fetched line: which dims gained how many key bits. */
struct LineInfo
{
    unsigned level;
    unsigned dimBegin;
    unsigned dimEnd;        //!< exclusive
    unsigned knownBitsAfter; //!< per-element key prefix length after fetch
};

/** Walks a plan's lines in fetch order. */
class FetchCursor
{
  public:
    explicit FetchCursor(const FetchPlanSpec &spec) : spec_(&spec) {}

    bool done() const { return level_ >= spec_->levels(); }
    unsigned linesFetched() const { return lines_; }

    /** Fetch the next 64 B line. */
    LineInfo
    next()
    {
        ANSMET_CHECK(!done());
        const unsigned epl = spec_->elemsPerLine(level_);
        LineInfo info;
        info.level = level_;
        info.dimBegin = dim_;
        info.dimEnd = std::min(dim_ + epl, spec_->dims);
        info.knownBitsAfter = spec_->knownBitsAfterLevel(level_);
        dim_ = info.dimEnd;
        if (dim_ >= spec_->dims) {
            dim_ = 0;
            ++level_;
        }
        ++lines_;
        return info;
    }

  private:
    const FetchPlanSpec *spec_;
    unsigned level_ = 0;
    unsigned dim_ = 0;
    unsigned lines_ = 0;
};

/**
 * Physically transform one vector into the bit-plane layout. The
 * result is padded to whole 64 B lines and contains, per level, the
 * next steps[level] key bits of each dimension (metadata bitmap
 * excluded here; the ETOpt encoder in prefix.h layers it on).
 */
std::vector<std::uint8_t> transformVector(const FetchPlanSpec &spec,
                                          const anns::VectorSet &vs,
                                          VectorId v);

/**
 * Restore the original element key values from a transformed buffer.
 * Exact inverse of transformVector for prefixLen == 0 plans; with a
 * common prefix, the prefix key bits must be supplied.
 */
std::vector<std::uint32_t> restoreKeys(const FetchPlanSpec &spec,
                                       const std::uint8_t *data,
                                       std::uint32_t common_prefix = 0);

} // namespace ansmet::et

#endif // ANSMET_ET_LAYOUT_H
