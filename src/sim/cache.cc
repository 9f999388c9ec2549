#include "cache.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace hipstr
{

CacheSim::CacheSim(uint32_t capacity_bytes, unsigned ways,
                   unsigned line_bytes)
    : _ways(ways), _lineShift(log2Floor(line_bytes))
{
    hipstr_assert(isPowerOf2(capacity_bytes));
    hipstr_assert(isPowerOf2(line_bytes));
    uint32_t lines = capacity_bytes / line_bytes;
    hipstr_assert(lines >= ways && lines % ways == 0);
    _sets = lines / ways;
    hipstr_assert(isPowerOf2(_sets));
    _setShift = log2Floor(_sets);
    _lines.resize(lines);
}

bool
CacheSim::accessLine(uint64_t line)
{
    _lastLine = line;
    ++_tick;
    const Addr line_addr = static_cast<Addr>(line);
    unsigned set = line_addr & (_sets - 1);
    Addr tag = line_addr >> _setShift;

    Line *base = &_lines[set * _ways];
    Line *victim = base;
    for (unsigned w = 0; w < _ways; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lastUse = _tick;
            ++_hits;
            return true;
        }
        if (!l.valid) {
            victim = &l;
        } else if (victim->valid && l.lastUse < victim->lastUse) {
            victim = &l;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = _tick;
    ++_misses;
    return false;
}

void
CacheSim::reset()
{
    for (Line &l : _lines)
        l.valid = false;
    _lastLine = kNoLine;
    _hits = 0;
    _misses = 0;
    _tick = 0;
}

} // namespace hipstr
