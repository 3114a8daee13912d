/**
 * @file
 * The per-length prefix-entropy loop, kept as an executable
 * specification of et::prefixEntropy: for every prefix length it
 * truncates all keys, sorts the truncated copy, and sums the entropy
 * terms over its runs in ascending prefix order.
 *
 * The production pass sorts the keys once and walks that one sorted
 * array per length instead; tests/test_profile.cc runs both side by
 * side and asserts bitwise-equal entropies. Do not optimize this loop;
 * its value is being the obviously-correct definition of the curve.
 */

#ifndef ANSMET_TESTS_REFERENCE_PROFILE_H
#define ANSMET_TESTS_REFERENCE_PROFILE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ansmet::et::test {

/** Entropy in bits of the top-L-bit prefixes of @p keys, L = 1..W. */
inline std::vector<double>
referencePrefixEntropy(const std::vector<std::uint32_t> &keys,
                       unsigned key_width)
{
    std::vector<double> entropy(key_width);
    std::vector<std::uint32_t> shifted(keys.size());
    for (unsigned len = 1; len <= key_width; ++len) {
        for (std::size_t i = 0; i < keys.size(); ++i)
            shifted[i] = keys[i] >> (key_width - len);
        std::sort(shifted.begin(), shifted.end());
        double h = 0.0;
        for (std::size_t i = 0; i < shifted.size();) {
            std::size_t j = i + 1;
            while (j < shifted.size() && shifted[j] == shifted[i])
                ++j;
            const double p = static_cast<double>(j - i) /
                             static_cast<double>(keys.size());
            h -= p * std::log2(p);
            i = j;
        }
        entropy[len - 1] = h;
    }
    return entropy;
}

} // namespace ansmet::et::test

#endif // ANSMET_TESTS_REFERENCE_PROFILE_H
