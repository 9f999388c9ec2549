#include "memory.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "support/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define HIPSTR_MEMORY_HAVE_MMAP 1
#endif

namespace hipstr
{

namespace
{

/**
 * A zero-filled block of @p bytes. On POSIX this is an anonymous
 * mapping whose pages the host materializes on first touch. It is not
 * calloc there: once one such block has been freed, glibc's dynamic
 * mmap threshold serves the next from the heap and zeroes all of it
 * eagerly.
 */
uint8_t *
mapZeroed(size_t bytes)
{
#if HIPSTR_MEMORY_HAVE_MMAP
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        hipstr_fatal("guest memory: mmap of %zu bytes failed", bytes);
#else
    void *p = std::calloc(bytes, 1);
    if (p == nullptr)
        hipstr_fatal("guest memory: calloc of %zu bytes failed", bytes);
#endif
    return static_cast<uint8_t *>(p);
}

void
unmapZeroed(uint8_t *p, size_t bytes)
{
#if HIPSTR_MEMORY_HAVE_MMAP
    ::munmap(p, bytes);
#else
    (void)bytes;
    std::free(p);
#endif
}

} // namespace

Memory::Memory() : _bytes(mapZeroed(kSize))
{
    rebuildSpans();
}

Memory::~Memory()
{
    unmapZeroed(_bytes, kSize);
}

void
Memory::setRegion(Addr base, uint32_t size, Perm perm,
                  const std::string &name)
{
    hipstr_assert(static_cast<uint64_t>(base) + size <= kSize);
    hipstr_assert((perm & (PermW | PermX)) != (PermW | PermX));
    // Later definitions take precedence; keep the list small by
    // replacing an exact match.
    for (auto &r : _regions) {
        if (r.base == base && r.size == size) {
            r.perm = perm;
            r.name = name;
            rebuildSpans();
            return;
        }
    }
    _regions.push_back(Region{base, size, perm, name});
    rebuildSpans();
}

void
Memory::rebuildSpans()
{
    ++_layoutEpoch;
    ++_codeEpoch;
    // Every region edge is a potential permission change; resolve the
    // perm of each cell with the region list's last-definition-wins
    // rule, then merge equal neighbours. Region counts are single
    // digits, so the quadratic resolve is irrelevant — this runs only
    // on setRegion, never on an access.
    std::vector<Addr> edges;
    edges.reserve(_regions.size() * 2 + 2);
    edges.push_back(0);
    const Addr mem_end = kSize;
    for (const auto &r : _regions) {
        if (r.base < mem_end)
            edges.push_back(r.base);
        if (r.base + r.size < mem_end)
            edges.push_back(r.base + r.size);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges.push_back(mem_end);

    _spans.clear();
    for (size_t i = 0; i + 1 < edges.size(); ++i) {
        const Addr cell = edges[i];
        Perm p = PermNone;
        for (const auto &r : _regions) {
            if (cell >= r.base && cell - r.base < r.size)
                p = r.perm;
        }
        if (!_spans.empty() && _spans.back().perm == p)
            _spans.back().end = edges[i + 1];
        else
            _spans.push_back(Span{edges[i + 1],
                                  static_cast<uint8_t>(p)});
    }
    hipstr_assert(!_spans.empty() && _spans.back().end == mem_end);
}

std::string
Memory::regionName(Addr addr) const
{
    std::string name;
    for (const auto &r : _regions) {
        if (addr >= r.base && addr - r.base < r.size)
            name = r.name;
    }
    return name;
}

void
Memory::check(Addr addr, unsigned len, Perm needed) const
{
    if (static_cast<uint64_t>(addr) + len > kSize) {
        throw Fault{addr, needed, "access beyond address space"};
    }
    Perm have = permAt(addr);
    if ((have & needed) != needed) {
        throw Fault{addr, needed,
                    std::string("permission violation in region '") +
                        regionName(addr) + "'"};
    }
}

bool
Memory::rangeAccessible(Addr addr, uint32_t len,
                        Perm needed) const noexcept
{
    if (static_cast<uint64_t>(addr) + len > kSize)
        return false;
    return len == 0 || !anySpanIn(addr, len, [needed](Perm p) {
        return (p & needed) != needed;
    });
}

uint8_t
Memory::read8(Addr addr) const
{
    check(addr, 1, PermR);
    return _bytes[addr];
}

uint16_t
Memory::read16(Addr addr) const
{
    check(addr, 2, PermR);
    return static_cast<uint16_t>(_bytes[addr]) |
        (static_cast<uint16_t>(_bytes[addr + 1]) << 8);
}

uint32_t
Memory::read32(Addr addr) const
{
    check(addr, 4, PermR);
    uint32_t v;
    std::memcpy(&v, &_bytes[addr], 4);
    return v;
}

void
Memory::beginJournal()
{
    hipstr_assert(!_journaling);
    _journaling = true;
    _journal.clear();
}

void
Memory::rollback()
{
    hipstr_assert(_journaling);
    // A restored byte may be non-zero on a page zeroRange() cleaned
    // since it was journaled.
    for (size_t i = _journal.size(); i-- > 0;) {
        const Addr a = _journal[i].first;
        _dirty[a >> kPageShift] = 1;
        _bytes[a] = _journal[i].second;
    }
    _journal.clear();
    _journaling = false;
}

void
Memory::journalBytes(Addr addr, unsigned len)
{
    if (!_journaling)
        return;
    for (unsigned i = 0; i < len; ++i)
        _journal.emplace_back(addr + i, _bytes[addr + i]);
}

void
Memory::write8(Addr addr, uint8_t v)
{
    check(addr, 1, PermW);
    journalBytes(addr, 1);
    _dirty[addr >> kPageShift] = 1;
    _bytes[addr] = v;
}

void
Memory::write16(Addr addr, uint16_t v)
{
    check(addr, 2, PermW);
    journalBytes(addr, 2);
    markDirty(addr, 2);
    _bytes[addr] = static_cast<uint8_t>(v);
    _bytes[addr + 1] = static_cast<uint8_t>(v >> 8);
}

void
Memory::write32(Addr addr, uint32_t v)
{
    check(addr, 4, PermW);
    journalBytes(addr, 4);
    markDirty4(addr);
    std::memcpy(&_bytes[addr], &v, 4);
}

uint8_t
Memory::fetch8(Addr addr) const
{
    check(addr, 1, PermX);
    return _bytes[addr];
}

size_t
Memory::fetchBytes(Addr addr, uint8_t *out, size_t len) const
{
    if (addr >= kSize)
        return 0;
    size_t n = 0;
    for (size_t i = spanIndex(addr);
         n < len && i < _spans.size() && (_spans[i].perm & PermX); ++i) {
        const size_t take =
            std::min<size_t>(len - n, _spans[i].end - (addr + n));
        std::memcpy(out + n, &_bytes[addr + n], take);
        n += take;
    }
    return n;
}

uint8_t
Memory::rawRead8(Addr addr) const
{
    hipstr_assert(addr < kSize);
    return _bytes[addr];
}

uint32_t
Memory::rawRead32(Addr addr) const
{
    hipstr_assert(static_cast<uint64_t>(addr) + 4 <= kSize);
    uint32_t v;
    std::memcpy(&v, &_bytes[addr], 4);
    return v;
}

void
Memory::rawWrite8(Addr addr, uint8_t v)
{
    hipstr_assert(addr < kSize);
    noteRawWrite(addr, 1);
    _dirty[addr >> kPageShift] = 1;
    _bytes[addr] = v;
}

void
Memory::rawWrite32(Addr addr, uint32_t v)
{
    hipstr_assert(static_cast<uint64_t>(addr) + 4 <= kSize);
    noteRawWrite(addr, 4);
    markDirty4(addr);
    std::memcpy(&_bytes[addr], &v, 4);
}

void
Memory::rawWriteBytes(Addr addr, const uint8_t *src, size_t len)
{
    hipstr_assert(static_cast<uint64_t>(addr) + len <= kSize);
    if (len == 0)
        return;
    noteRawWrite(addr, len);
    markDirty(addr, len);
    std::memcpy(&_bytes[addr], src, len);
}

void
Memory::rawReadBytes(Addr addr, uint8_t *dst, size_t len) const
{
    hipstr_assert(static_cast<uint64_t>(addr) + len <= kSize);
    std::memcpy(dst, &_bytes[addr], len);
}

void
Memory::zeroRange(Addr base, uint32_t len)
{
    hipstr_assert(static_cast<uint64_t>(base) + len <= kSize);
    noteRawWrite(base, len);
    const uint64_t end = static_cast<uint64_t>(base) + len;
    bool cleaned = false;
    for (uint64_t p = base >> kPageShift; (p << kPageShift) < end; ++p) {
        if (!_dirty[p])
            continue; // already zero
        const uint64_t page_lo = p << kPageShift;
        const uint64_t page_hi = page_lo + kPageBytes;
        const uint64_t lo = std::max<uint64_t>(page_lo, base);
        const uint64_t hi = std::min(page_hi, end);
        std::memset(_bytes + lo, 0, hi - lo);
        if (lo == page_lo && hi == page_hi) {
            _dirty[p] = 0;
            cleaned = true;
        }
    }
    // A JIT write window over a now-clean page would let compiled
    // stores skip the mark: retire every cached window.
    if (cleaned)
        ++_layoutEpoch;
}

} // namespace hipstr
