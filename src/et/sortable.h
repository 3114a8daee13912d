/**
 * @file
 * Monotone "sortable key" codecs.
 *
 * Early termination reasons about *bit prefixes* of element values
 * (Section 4.1). For that to be sound, the bit pattern must be
 * order-preserving MSB-first: for any two values a < b, key(a) <
 * key(b) as unsigned integers, and more-significant key bits must
 * matter more. The classic transforms achieve this:
 *
 *  - UINT8: identity;
 *  - INT8:  flip the sign bit (two's complement -> offset binary);
 *  - FP16/FP32: if the sign bit is set, invert all bits; otherwise set
 *    the sign bit (IEEE-754 total-order trick). The exponent then sits
 *    right below the MSB, which is exactly the paper's observation
 *    that "the exponent is fetched before the mantissa".
 *
 * All prefix/bound machinery operates on keys and converts interval
 * endpoints back to numeric values via keyToValue().
 */

#ifndef ANSMET_ET_SORTABLE_H
#define ANSMET_ET_SORTABLE_H

#include <cstdint>

#include "anns/scalar.h"
#include "common/bitops.h"

namespace ansmet::et {

using anns::ScalarType;

/** Bit width of the sortable key for @p t (same as the storage width). */
constexpr unsigned
keyBits(ScalarType t)
{
    return anns::scalarBits(t);
}

/** Map raw storage bits (LSB-aligned) to the sortable key. */
inline std::uint32_t
toKey(ScalarType t, std::uint32_t raw)
{
    switch (t) {
      case ScalarType::kUint8:
        return raw & 0xffu;
      case ScalarType::kInt8:
        return (raw ^ 0x80u) & 0xffu;
      case ScalarType::kFp16: {
        const std::uint32_t r = raw & 0xffffu;
        return (r & 0x8000u) ? (~r & 0xffffu) : (r | 0x8000u);
      }
      case ScalarType::kFp32:
        return (raw & 0x80000000u) ? ~raw : (raw | 0x80000000u);
    }
    return 0;
}

/** Inverse of toKey(). */
inline std::uint32_t
fromKey(ScalarType t, std::uint32_t key)
{
    switch (t) {
      case ScalarType::kUint8:
        return key & 0xffu;
      case ScalarType::kInt8:
        return (key ^ 0x80u) & 0xffu;
      case ScalarType::kFp16: {
        const std::uint32_t k = key & 0xffffu;
        return (k & 0x8000u) ? (k & 0x7fffu) : (~k & 0xffffu);
      }
      case ScalarType::kFp32:
        return (key & 0x80000000u) ? (key & 0x7fffffffu) : ~key;
    }
    return 0;
}

/** Numeric value of the element whose sortable key is @p key. */
inline double
keyToValue(ScalarType t, std::uint32_t key)
{
    const std::uint32_t raw = fromKey(t, key);
    switch (t) {
      case ScalarType::kUint8:
        return static_cast<double>(raw);
      case ScalarType::kInt8:
        return static_cast<double>(
            static_cast<std::int8_t>(static_cast<std::uint8_t>(raw)));
      case ScalarType::kFp16:
        return static_cast<double>(
            anns::halfToFloat(static_cast<std::uint16_t>(raw)));
      case ScalarType::kFp32:
        return static_cast<double>(anns::bitsToFloat(raw));
    }
    return 0.0;
}

/**
 * The closed interval of values an element can take given the top
 * @p prefix_len bits of its key.
 */
struct ValueInterval
{
    double lo;
    double hi;

    bool operator==(const ValueInterval &) const = default;
};

/**
 * Clamp a key into the finite range of the type, so interval endpoints
 * never decode to infinities or NaNs (stored elements are always
 * finite, so clamping keeps the interval conservative).
 */
inline std::uint32_t
clampKeyFinite(ScalarType t, std::uint32_t key)
{
    if (t == ScalarType::kFp32) {
        const std::uint32_t max_key = toKey(t, 0x7f7fffffu); // +FLT_MAX
        const std::uint32_t min_key = toKey(t, 0xff7fffffu); // -FLT_MAX
        if (key > max_key)
            return max_key;
        if (key < min_key)
            return min_key;
        return key;
    }
    if (t == ScalarType::kFp16) {
        const std::uint32_t max_key = toKey(t, 0x7bffu); // +HALF_MAX
        const std::uint32_t min_key = toKey(t, 0xfbffu); // -HALF_MAX
        if (key > max_key)
            return max_key;
        if (key < min_key)
            return min_key;
        return key;
    }
    return key;
}

/** Interval implied by key prefix @p prefix (LSB-aligned) of length L. */
inline ValueInterval
intervalFromPrefix(ScalarType t, std::uint32_t prefix, unsigned prefix_len)
{
    const unsigned w = keyBits(t);
    const unsigned rest = w - prefix_len;
    const std::uint32_t lo_key =
        prefix_len == 0 ? 0 : (prefix << rest);
    const std::uint32_t hi_key =
        lo_key | static_cast<std::uint32_t>(maskLow(rest));
    return {keyToValue(t, clampKeyFinite(t, lo_key)),
            keyToValue(t, clampKeyFinite(t, hi_key))};
}

} // namespace ansmet::et

#endif // ANSMET_ET_SORTABLE_H
