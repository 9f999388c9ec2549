/**
 * @file
 * Dense fixed-capacity bitset used by the dataflow analyses.
 */

#ifndef HIPSTR_SUPPORT_BITSET_HH
#define HIPSTR_SUPPORT_BITSET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hipstr
{

/** A dense bitset of @c size() bits with set-algebra operations. */
class DenseBitSet
{
  public:
    DenseBitSet() = default;
    explicit DenseBitSet(size_t nbits)
        : _nbits(nbits), _words((nbits + 63) / 64, 0)
    {
    }

    size_t size() const { return _nbits; }

    bool
    test(size_t i) const
    {
        return (_words[i / 64] >> (i % 64)) & 1;
    }

    void set(size_t i) { _words[i / 64] |= (1ull << (i % 64)); }
    void clear(size_t i) { _words[i / 64] &= ~(1ull << (i % 64)); }

    /** this |= other. @return true if this changed. */
    bool
    unionWith(const DenseBitSet &other)
    {
        bool changed = false;
        for (size_t i = 0; i < _words.size(); ++i) {
            uint64_t merged = _words[i] | other._words[i];
            if (merged != _words[i]) {
                _words[i] = merged;
                changed = true;
            }
        }
        return changed;
    }

    /** Number of set bits. */
    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : _words)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

    bool
    any() const
    {
        for (uint64_t w : _words)
            if (w)
                return true;
        return false;
    }

    /** Collect set bit indices. */
    std::vector<uint32_t>
    toVector() const
    {
        std::vector<uint32_t> out;
        for (size_t i = 0; i < _nbits; ++i)
            if (test(i))
                out.push_back(static_cast<uint32_t>(i));
        return out;
    }

    bool operator==(const DenseBitSet &) const = default;

  private:
    size_t _nbits = 0;
    std::vector<uint64_t> _words;
};

} // namespace hipstr

#endif // HIPSTR_SUPPORT_BITSET_HH
