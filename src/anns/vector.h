/**
 * @file
 * Typed dense vector storage.
 *
 * A VectorSet holds N vectors of D elements in their native scalar
 * type. Values are exposed both as floats (for distance computation)
 * and as raw element bit patterns (for the early-termination codecs).
 */

#ifndef ANSMET_ANNS_VECTOR_H
#define ANSMET_ANNS_VECTOR_H

#include <cstdint>
#include <vector>

#include "anns/scalar.h"
#include "common/check.h"
#include "common/types.h"

namespace ansmet::anns {

/** Dense N x D matrix of a single scalar type. */
class VectorSet
{
  public:
    VectorSet(std::size_t n, unsigned dims, ScalarType type)
        : n_(n), dims_(dims), type_(type),
          data_(n * dims * scalarBytes(type), 0)
    {
        ANSMET_CHECK(dims > 0);
    }

    std::size_t size() const { return n_; }
    unsigned dims() const { return dims_; }
    ScalarType type() const { return type_; }

    /** Bytes occupied by one vector. */
    std::size_t vectorBytes() const { return dims_ * scalarBytes(type_); }

    /** Raw storage of vector @p v. */
    const std::uint8_t *
    raw(VectorId v) const
    {
        return data_.data() + static_cast<std::size_t>(v) * vectorBytes();
    }

    std::uint8_t *
    raw(VectorId v)
    {
        return data_.data() + static_cast<std::size_t>(v) * vectorBytes();
    }

    /** Element (v, d) as a float regardless of the storage type. */
    float
    at(VectorId v, unsigned d) const
    {
        const std::uint8_t *p = raw(v) + d * scalarBytes(type_);
        switch (type_) {
          case ScalarType::kUint8:
            return static_cast<float>(*p);
          case ScalarType::kInt8:
            return static_cast<float>(static_cast<std::int8_t>(*p));
          case ScalarType::kFp16: {
            std::uint16_t h;
            std::memcpy(&h, p, 2);
            return halfToFloat(h);
          }
          case ScalarType::kFp32: {
            float f;
            std::memcpy(&f, p, 4);
            return f;
          }
        }
        return 0.0f;
    }

    /** Element (v, d) as its raw bit pattern, LSB-aligned. */
    std::uint32_t
    bitsAt(VectorId v, unsigned d) const
    {
        const std::uint8_t *p = raw(v) + d * scalarBytes(type_);
        switch (type_) {
          case ScalarType::kUint8:
          case ScalarType::kInt8:
            return *p;
          case ScalarType::kFp16: {
            std::uint16_t h;
            std::memcpy(&h, p, 2);
            return h;
          }
          case ScalarType::kFp32: {
            std::uint32_t u;
            std::memcpy(&u, p, 4);
            return u;
          }
        }
        return 0;
    }

    /**
     * Store @p value into element (v, d), clamping/rounding to the
     * storage type.
     */
    void
    set(VectorId v, unsigned d, float value)
    {
        std::uint8_t *p = raw(v) + d * scalarBytes(type_);
        switch (type_) {
          case ScalarType::kUint8: {
            const float c = value < 0.f ? 0.f :
                            (value > 255.f ? 255.f : value);
            *p = static_cast<std::uint8_t>(c + 0.5f);
            break;
          }
          case ScalarType::kInt8: {
            const float c = value < -128.f ? -128.f :
                            (value > 127.f ? 127.f : value);
            const auto i = static_cast<std::int8_t>(
                c >= 0 ? c + 0.5f : c - 0.5f);
            *p = static_cast<std::uint8_t>(i);
            break;
          }
          case ScalarType::kFp16: {
            const std::uint16_t h = floatToHalf(value);
            std::memcpy(p, &h, 2);
            break;
          }
          case ScalarType::kFp32:
            std::memcpy(p, &value, 4);
            break;
        }
    }

    /** Copy vector @p v into a float buffer of dims() entries. */
    void
    toFloat(VectorId v, float *out) const
    {
        for (unsigned d = 0; d < dims_; ++d)
            out[d] = at(v, d);
    }

    std::vector<float>
    toFloat(VectorId v) const
    {
        std::vector<float> out(dims_);
        toFloat(v, out.data());
        return out;
    }

  private:
    std::size_t n_;
    unsigned dims_;
    ScalarType type_;
    std::vector<std::uint8_t> data_;
};

} // namespace ansmet::anns

#endif // ANSMET_ANNS_VECTOR_H
