/**
 * @file
 * Offline common-prefix elimination with outlier handling
 * (Section 4.2, Figure 4 of the paper).
 *
 * A single (mostly) common key prefix of length P is chosen from the
 * sampling set so that at most outlier_frac of the sampled *elements*
 * mismatch it. Storage then keeps only the remaining W-P bits per
 * element; the prefix itself lives in the NDP unit's configuration.
 *
 * Vectors whose elements all match are "normal". A vector with any
 * mismatching element is an "outlier vector" (OlVec bit set): each of
 * its elements spends 1 bit on an OlElm flag, and outlier elements
 * re-purpose their W-P-1 remaining bits as
 *   [ matchLen : ceil(log2 P) bits ][ key bits from position matchLen ],
 * dropping as many low bits as no longer fit. Dropped bits make the
 * recovered value an interval, so a final in-bound result on an
 * outlier vector must be re-checked against an uncompressed backup
 * copy (the paper's default, no accuracy loss) unless the caller opts
 * into lossy mode (Table 5 row b).
 */

#ifndef ANSMET_ET_PREFIX_H
#define ANSMET_ET_PREFIX_H

#include <cstdint>
#include <vector>

#include "anns/vector.h"
#include "common/bitops.h"
#include "et/sortable.h"

namespace ansmet::et {

/** The shared key prefix kept on-chip. */
struct CommonPrefix
{
    ScalarType type = ScalarType::kFp32;
    unsigned length = 0;      //!< P, in bits
    std::uint32_t bits = 0;   //!< LSB-aligned P-bit prefix value

    bool operator==(const CommonPrefix &) const = default;
};

/**
 * Find the longest prefix such that at most @p outlier_frac of
 * @p sample_keys mismatch it. The prefix is grown greedily bit by bit,
 * always following the majority next bit.
 */
CommonPrefix findCommonPrefix(ScalarType t,
                              const std::vector<std::uint32_t> &sample_keys,
                              double outlier_frac);

/**
 * Dataset-wide prefix-elimination state: classification of every
 * vector/element and the progressive "how many key bits are known
 * after f fetched storage bits" model used by the fetch simulator.
 */
class PrefixElimination
{
  public:
    /**
     * @param cp prefix chosen from the sampling set
     * @param vs the full vector set (classified eagerly)
     */
    PrefixElimination(const CommonPrefix &cp, const anns::VectorSet &vs);

    const CommonPrefix &prefix() const { return cp_; }

    /** Bits of the matchLen field in the outlier element format. */
    unsigned metaBits() const { return meta_bits_; }

    bool
    vectorIsOutlier(VectorId v) const
    {
        return outlier_vec_[v];
    }

    /**
     * Key-prefix bits of element (v, d) known once @p fetched_bits of
     * its transformed storage (W - P bits budget) have arrived.
     */
    unsigned knownLen(VectorId v, unsigned d, unsigned fetched_bits) const;

    /** knownLen at full fetch (equals key width iff losslessly stored). */
    unsigned maxKnownLen(VectorId v, unsigned d) const;

    /** Number of outlier vectors (those with backup copies). */
    std::size_t numOutlierVectors() const { return num_outlier_vecs_; }

    /** Number of outlier elements across the set. */
    std::size_t numOutlierElements() const { return num_outlier_elems_; }

    /**
     * Fraction of the original data size saved by elimination:
     * (P*D - (D+1)) bits per vector over W*D, not counting backups.
     */
    double spaceSavedFraction() const;

    /** Backup storage as a fraction of the original data size. */
    double extraSpaceFraction() const;

  private:
    /** Leading key bits matching the common prefix (0..P). */
    unsigned matchedLen(std::uint32_t key) const;

    CommonPrefix cp_;
    const anns::VectorSet &vs_;
    unsigned meta_bits_;
    unsigned key_width_;
    std::vector<bool> outlier_vec_;
    // matchLen per element, stored only for outlier vectors as a dense
    // side table: outlier_slot_[v] is the vector's ordinal among the
    // outliers (kNoSlot for normal vectors) and match_len_ holds
    // dims() bytes per slot, in slot order. Slot order is id order, so
    // lookup is O(1) and any walk over the table is deterministic.
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    std::vector<std::uint32_t> outlier_slot_;
    std::vector<std::uint8_t> match_len_;
    std::size_t num_outlier_vecs_ = 0;
    std::size_t num_outlier_elems_ = 0;
};

} // namespace ansmet::et

#endif // ANSMET_ET_PREFIX_H
