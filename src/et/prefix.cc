#include "et/prefix.h"

#include <algorithm>

#include "common/check.h"

namespace ansmet::et {

CommonPrefix
findCommonPrefix(ScalarType t, const std::vector<std::uint32_t> &sample_keys,
                 double outlier_frac)
{
    CommonPrefix cp;
    cp.type = t;
    if (sample_keys.empty())
        return cp;

    const unsigned w = keyBits(t);
    const auto budget = static_cast<std::size_t>(
        outlier_frac * static_cast<double>(sample_keys.size()));

    std::uint32_t prefix = 0;
    for (unsigned len = 1; len <= w; ++len) {
        // Try extending with the majority next bit.
        const unsigned shift = w - len;
        std::size_t ones = 0;
        std::size_t candidates = 0;
        for (const std::uint32_t k : sample_keys) {
            // Only elements still matching the current prefix vote.
            if (len > 1 && (k >> (shift + 1)) != prefix)
                continue;
            ++candidates;
            ones += (k >> shift) & 1;
        }
        const unsigned bit = ones * 2 >= candidates ? 1 : 0;
        const std::uint32_t next = (prefix << 1) | bit;

        std::size_t mismatches = 0;
        for (const std::uint32_t k : sample_keys)
            if ((k >> shift) != next)
                ++mismatches;
        if (mismatches > budget)
            break;

        prefix = next;
        cp.length = len;
        cp.bits = prefix;
    }

    // Keeping at least 1 stored bit per element is required by the
    // layout (a 0-bit level is meaningless); also leave room for the
    // OlElm flag in the outlier-vector format.
    if (cp.length >= w) {
        cp.length = w - 1;
        cp.bits = prefix >> 1;
    }
    return cp;
}

PrefixElimination::PrefixElimination(const CommonPrefix &cp,
                                     const anns::VectorSet &vs)
    : cp_(cp), vs_(vs),
      meta_bits_(cp.length <= 1 ? 0 : bitsFor(cp.length - 1)),
      key_width_(keyBits(cp.type)),
      outlier_vec_(vs.size(), false),
      outlier_slot_(vs.size(), kNoSlot)
{
    ANSMET_CHECK(cp.type == vs.type());
    ANSMET_CHECK(cp.length < key_width_);

    std::vector<std::uint8_t> lens(vs.dims());
    for (std::size_t v = 0; v < vs.size(); ++v) {
        const auto id = static_cast<VectorId>(v);
        bool any_outlier = false;
        for (unsigned d = 0; d < vs.dims(); ++d) {
            const std::uint32_t key = toKey(cp.type, vs.bitsAt(id, d));
            const unsigned ml = matchedLen(key);
            lens[d] = static_cast<std::uint8_t>(ml);
            if (ml < cp.length) {
                any_outlier = true;
                ++num_outlier_elems_;
            }
        }
        if (any_outlier) {
            outlier_vec_[v] = true;
            outlier_slot_[v] =
                static_cast<std::uint32_t>(num_outlier_vecs_);
            match_len_.insert(match_len_.end(), lens.begin(),
                              lens.end());
            ++num_outlier_vecs_;
        }
    }
}

unsigned
PrefixElimination::matchedLen(std::uint32_t key) const
{
    const unsigned p = cp_.length;
    for (unsigned len = p; len > 0; --len) {
        const unsigned shift = key_width_ - len;
        if ((key >> shift) == (cp_.bits >> (p - len)))
            return len;
    }
    return 0;
}

unsigned
PrefixElimination::knownLen(VectorId v, unsigned d,
                            unsigned fetched_bits) const
{
    const unsigned p = cp_.length;
    if (!outlier_vec_[v]) {
        // Normal vector: every fetched bit extends the common prefix.
        return std::min(p + fetched_bits, key_width_);
    }

    // Outlier vector: the first storage bit is the OlElm flag.
    if (fetched_bits == 0)
        return 0;
    const unsigned payload_fetched = fetched_bits - 1;
    ANSMET_CHECK(outlier_slot_[v] != kNoSlot);
    const unsigned ml =
        match_len_[std::size_t{outlier_slot_[v]} * vs_.dims() + d];

    if (ml >= p) {
        // Normal element inside an outlier vector: prefix applies, but
        // one budget bit went to OlElm.
        return std::min(p + payload_fetched, key_width_);
    }

    // Outlier element: matchLen field first, then key bits from
    // position ml. Nothing is known until the field is complete.
    if (payload_fetched < meta_bits_)
        return 0;
    if (payload_fetched == meta_bits_)
        return ml; // field complete: the matched prefix bits are known
    const unsigned data_bits = payload_fetched - meta_bits_;
    return std::min(ml + data_bits, maxKnownLen(v, d));
}

unsigned
PrefixElimination::maxKnownLen(VectorId v, unsigned d) const
{
    const unsigned p = cp_.length;
    const unsigned budget = key_width_ - p; // storage bits per element
    if (!outlier_vec_[v])
        return key_width_;

    const unsigned ml =
        match_len_[std::size_t{outlier_slot_[v]} * vs_.dims() + d];
    if (ml >= p)
        return std::min(p + (budget - 1), key_width_);
    if (budget <= 1 + meta_bits_)
        return ml;
    return std::min(ml + (budget - 1 - meta_bits_), key_width_);
}

double
PrefixElimination::spaceSavedFraction() const
{
    const double orig =
        static_cast<double>(key_width_) * vs_.dims();
    const double saved =
        static_cast<double>(cp_.length) * vs_.dims() -
        static_cast<double>(vs_.dims() + 1);
    return std::max(0.0, saved / orig);
}

double
PrefixElimination::extraSpaceFraction() const
{
    return static_cast<double>(num_outlier_vecs_) /
           static_cast<double>(vs_.size());
}

} // namespace ansmet::et
