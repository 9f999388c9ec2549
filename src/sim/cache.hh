/**
 * @file
 * Set-associative LRU cache simulator, used for the L1 instruction and
 * data caches of Table 1 and for the 3-entry global register cache of
 * Section 5.4 (modeled as a tiny fully-associative L0 over stack
 * words).
 */

#ifndef HIPSTR_SIM_CACHE_HH
#define HIPSTR_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace hipstr
{

/**
 * A set-associative cache with true-LRU replacement.
 *
 * Same-line shortcut: the cache remembers the line of its previous
 * access, and a repeat of that line counts a hit without walking the
 * set or advancing the tick. This is exact under true LRU. After any
 * access to line L, L is resident and holds the largest lastUse of
 * every line, because ticks only grow. A repeat of L would hit and
 * raise L's lastUse to a new maximum, so L stays the unique MRU line
 * either way. Replacement only compares lastUse values within a set,
 * which are distinct, and skipping the update leaves their relative
 * order unchanged. So every later hit, miss and victim is the same as
 * with the full walk. reset() clears the memo with the lines.
 */
class CacheSim
{
  public:
    /**
     * @param capacity_bytes total size (power of two)
     * @param ways           associativity
     * @param line_bytes     line size (power of two, default 64)
     */
    CacheSim(uint32_t capacity_bytes, unsigned ways,
             unsigned line_bytes = 64);

    /** Touch @p addr. @retval true on hit. */
    bool
    access(Addr addr)
    {
        const uint64_t line = addr >> _lineShift;
        if (line == _lastLine) {
            ++_hits;
            return true;
        }
        return accessLine(line);
    }

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    uint64_t accesses() const { return _hits + _misses; }
    double
    missRate() const
    {
        return accesses() ? double(_misses) / double(accesses()) : 0;
    }
    void reset();

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        uint64_t lastUse = 0;
    };

    /** Matches no line address (those are at most 32 bits wide). */
    static constexpr uint64_t kNoLine = ~uint64_t(0);

    /** The full set walk for line address @p line. */
    bool accessLine(uint64_t line);

    unsigned _ways;
    unsigned _lineShift;
    unsigned _setShift;
    unsigned _sets;
    std::vector<Line> _lines;
    uint64_t _lastLine = kNoLine; ///< line of the previous access
    uint64_t _tick = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
};

} // namespace hipstr

#endif // HIPSTR_SIM_CACHE_HH
