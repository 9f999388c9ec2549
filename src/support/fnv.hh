/**
 * @file
 * 64-bit FNV-1a: the one hash behind every run signature, output
 * checksum and journal config hash. Their values are pinned by the
 * golden bench files and the journal fixtures, so the byte order of
 * fnvFold64 is part of the format.
 */

#ifndef HIPSTR_SUPPORT_FNV_HH
#define HIPSTR_SUPPORT_FNV_HH

#include <cstdint>

namespace hipstr
{

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold one byte into the running hash @p h. */
inline void
fnvByte(uint64_t &h, uint8_t b)
{
    h ^= b;
    h *= kFnvPrime;
}

/** Fold the eight bytes of @p v, least significant first. */
inline void
fnvFold64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        fnvByte(h, uint8_t(v >> (8 * i)));
}

} // namespace hipstr

#endif // HIPSTR_SUPPORT_FNV_HH
