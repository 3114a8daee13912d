#include "et/layout.h"

namespace ansmet::et {

std::vector<std::uint8_t>
transformVector(const FetchPlanSpec &spec, const anns::VectorSet &vs,
                VectorId v)
{
    ANSMET_CHECK(spec.valid(), "invalid fetch plan");
    ANSMET_CHECK(spec.dims == vs.dims() && spec.type == vs.type());

    std::vector<std::uint8_t> out;
    BitWriter writer(out);
    const unsigned w = keyBits(spec.type);

    unsigned consumed = spec.prefixLen;
    for (unsigned l = 0; l < spec.levels(); ++l) {
        const unsigned nbits = spec.steps[l];
        const unsigned epl = spec.elemsPerLine(l);
        for (unsigned d0 = 0; d0 < spec.dims; d0 += epl) {
            const unsigned d1 = std::min(d0 + epl, spec.dims);
            for (unsigned d = d0; d < d1; ++d) {
                const std::uint32_t key = toKey(spec.type, vs.bitsAt(v, d));
                writer.put(extractMsbFirst(key, w, consumed, nbits), nbits);
            }
            writer.align(512); // pad each 64 B line
        }
        consumed += nbits;
    }
    return out;
}

std::vector<std::uint32_t>
restoreKeys(const FetchPlanSpec &spec, const std::uint8_t *data,
            std::uint32_t common_prefix)
{
    const unsigned w = keyBits(spec.type);
    std::vector<std::uint32_t> keys(spec.dims, 0);

    if (spec.prefixLen > 0) {
        const std::uint32_t top = common_prefix
                                  << (w - spec.prefixLen);
        for (auto &k : keys)
            k = top;
    }

    BitReader reader(data, static_cast<std::uint64_t>(spec.totalLines()) *
                               512);
    unsigned consumed = spec.prefixLen;
    for (unsigned l = 0; l < spec.levels(); ++l) {
        const unsigned nbits = spec.steps[l];
        const unsigned epl = spec.elemsPerLine(l);
        for (unsigned d0 = 0; d0 < spec.dims; d0 += epl) {
            const unsigned d1 = std::min(d0 + epl, spec.dims);
            const std::uint64_t line_start = reader.pos();
            for (unsigned d = d0; d < d1; ++d) {
                const auto chunk =
                    static_cast<std::uint32_t>(reader.get(nbits));
                keys[d] |= chunk << (w - consumed - nbits);
            }
            reader.seek(line_start + 512); // skip line padding
        }
        consumed += nbits;
    }
    return keys;
}

} // namespace ansmet::et
