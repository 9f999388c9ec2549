/**
 * @file
 * Flat guest memory with region permissions and the canonical process
 * address-space layout used by the loader, the PSR virtual machines,
 * and the attack framework.
 */

#ifndef HIPSTR_ISA_MEMORY_HH
#define HIPSTR_ISA_MEMORY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace hipstr
{

/**
 * Canonical address-space layout. A fat binary carries one code section
 * per ISA; both map simultaneously (the paper's symmetrical fat binary).
 * The code caches are VM-private regions that guest code must never
 * reference — the software-fault-isolation checks in the VM enforce
 * this, exactly as Section 5.1 of the paper mandates.
 */
namespace layout
{
constexpr Addr kRiscCodeBase = 0x00010000;
constexpr Addr kCiscCodeBase = 0x00400000;
constexpr Addr kDataBase     = 0x00800000;
/** Per-ISA function-pointer dispatch tables (1024 entries each). */
constexpr Addr kRiscFuncTable = kDataBase;
constexpr Addr kCiscFuncTable = kDataBase + 0x1000;
constexpr Addr kGlobalsBase  = kDataBase + 0x2000;
constexpr Addr kHeapBase     = 0x00a00000;
constexpr Addr kStackTop     = 0x01000000; ///< stack grows down
constexpr Addr kStackLimit   = 0x00c00000; ///< lowest legal stack addr
constexpr Addr kRiscCacheBase = 0x01000000; ///< Risc VM code cache
constexpr Addr kCiscCacheBase = 0x01400000; ///< Cisc VM code cache
constexpr Addr kMemEnd       = 0x01800000; ///< 24 MiB address space

/** Base of the code section for @p isa. */
constexpr Addr
codeBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscCodeBase : kCiscCodeBase;
}

/** Base of the VM code cache for @p isa. */
constexpr Addr
cacheBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscCacheBase : kCiscCacheBase;
}

/** Base of the function-pointer dispatch table for @p isa. */
constexpr Addr
funcTableBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscFuncTable : kCiscFuncTable;
}
} // namespace layout

/** Access permissions for a memory region. */
enum Perm : uint8_t
{
    PermNone = 0,
    PermR = 1,
    PermW = 2,
    PermX = 4,
    PermRW = PermR | PermW,
    PermRX = PermR | PermX
};

/**
 * Byte-addressable little-endian guest memory.
 *
 * Accesses outside the address space or violating region permissions
 * raise a @c MemFault, which the interpreter converts into a guest
 * crash — the event brute-force attacks (Section 6, Algorithm 1)
 * observe and count.
 *
 * The 24 MiB backing store is an anonymous mapping, zero-filled by
 * the host on first touch, so a Memory costs only the pages its guest
 * touches. A byte-per-page dirty map records the pages that may hold
 * a non-zero byte: every write path marks the pages it stores to, and
 * a clean page is all zero. zeroRange() and checkpointing visit only
 * dirty pages, which is what makes a worker respawn or a checkpoint
 * restore cost the pages the worker touched, not the whole image.
 */
class Memory
{
  public:
    /** Thrown on an illegal access; caught by the interpreter. */
    struct Fault
    {
        Addr addr;
        Perm needed;
        std::string what;
    };

    /** Granule of the dirty-page map. @{ */
    static constexpr unsigned kPageShift = 12;
    static constexpr uint32_t kPageBytes = uint32_t(1) << kPageShift;
    /** @} */

    Memory();
    ~Memory();
    /** The backing store is an owned mapping; a Memory never moves. */
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Define or redefine the permissions of [base, base+size). W^X:
     * a permission granting both PermW and PermX panics in every
     * build (see codeEpoch()).
     */
    void setRegion(Addr base, uint32_t size, Perm perm,
                   const std::string &name);

    /**
     * Permission byte governing @p addr: a binary search over the
     * flattened span partition (rebuilt on every setRegion), so the
     * per-access cost is O(log regions) instead of a scan of the
     * region list with last-definition-wins ordering.
     */
    Perm permAt(Addr addr) const
    {
        if (addr >= kSize)
            return PermNone;
        return static_cast<Perm>(_spans[spanIndex(addr)].perm);
    }

    /** Name of the region containing @p addr ("" if unmapped). */
    std::string regionName(Addr addr) const;

    /** Checked reads/writes. @{ */
    uint8_t read8(Addr addr) const;
    uint16_t read16(Addr addr) const;
    uint32_t read32(Addr addr) const;
    void write8(Addr addr, uint8_t v);
    void write16(Addr addr, uint16_t v);
    void write32(Addr addr, uint32_t v);
    /** @} */

    /**
     * Non-throwing checked accesses: return false instead of raising a
     * Fault. These back the per-instruction hot path of the interpreter
     * and the PSR VMs, where a status return avoids the try/catch setup
     * cost of the throwing variants; the throwing variants remain for
     * cold paths that want the diagnostic message. Try-writes honor
     * journaling exactly like their throwing counterparts. Inline —
     * together with the span-based permAt, a checked access is a
     * bounds test, a short binary search, the dirty mark, and the data
     * move. @{
     */
    bool tryRead8(Addr addr, uint8_t &v) const noexcept
    {
        if (!checkOk(addr, 1, PermR))
            return false;
        v = _bytes[addr];
        return true;
    }

    bool tryRead32(Addr addr, uint32_t &v) const noexcept
    {
        if (!checkOk(addr, 4, PermR))
            return false;
        __builtin_memcpy(&v, &_bytes[addr], 4);
        return true;
    }

    bool tryWrite8(Addr addr, uint8_t v) noexcept
    {
        if (!checkOk(addr, 1, PermW))
            return false;
        if (_journaling)
            journalBytes(addr, 1);
        _dirty[addr >> kPageShift] = 1;
        _bytes[addr] = v;
        return true;
    }

    bool tryWrite32(Addr addr, uint32_t v) noexcept
    {
        if (!checkOk(addr, 4, PermW))
            return false;
        if (_journaling)
            journalBytes(addr, 4);
        markDirty4(addr);
        __builtin_memcpy(&_bytes[addr], &v, 4);
        return true;
    }
    /** @} */

    /**
     * Span hint: an access fast path for loops whose addresses
     * cluster inside one permission span (stack frames, the relocated
     * register slots, a hot array or byte buffer). The hint caches the
     * inclusive range of base addresses for which an access of one
     * fixed length (4 bytes or 1) is known legal, so a hit replaces
     * the permAt binary search with one range compare. Hints hold no
     * pointers and are invalidated by layoutEpoch(); the trace JIT
     * keeps one persistent hint per memory op — each op has one
     * access length — and clears its table when the epoch moves.
     * Traces never reach setRegion or zeroRange (syscalls end a
     * trace). A hit performs exactly the access tryRead32/tryWrite32
     * (or tryRead8/tryWrite8) would, so the hint is semantically
     * invisible.
     *
     * A hint is direction-specific: the cached window proves only the
     * permission of the probe that established it. The JIT's
     * read-modify-write ops probe one slot for both directions, which
     * is sound because permission spans are uniform.
     *
     * A write window is also bounded to the page(s) of the probed
     * access, and the probe marks those pages dirty: compiled stores
     * bypass the checked write paths, so the window is what keeps
     * them inside marked pages. A page turns clean only in
     * zeroRange(), which then bumps layoutEpoch(), so no persistent
     * write window outlives its mark.
     */
    struct SpanHint
    {
        Addr lo = 1; ///< inclusive; lo > hi encodes the empty range
        Addr hi = 0;
    };

    /**
     * Validate a 4-byte access at @p addr for @p needed and refill
     * @p h around it *without* performing the access. This is the
     * trace JIT's hint-miss probe: it must stay free of guest-visible
     * effects so the op that missed can be retried from its start
     * (read-modify-write ops would otherwise double-apply). A write
     * probe marks the page(s) of the access dirty, which no guest can
     * observe.
     */
    bool probe32Span(SpanHint &h, Addr addr, Perm needed) noexcept
    {
        return probeSpan(h, addr, 4, needed);
    }

    /**
     * probe32Span for a 1-byte access: the refilled window reaches
     * size()-1, where the 4-byte window stops at size()-4, so a legal
     * byte access at the very top of the address space hits.
     */
    bool probe8Span(SpanHint &h, Addr addr, Perm needed) noexcept
    {
        return probeSpan(h, addr, 1, needed);
    }

    /**
     * True iff every byte of [addr, addr+len) is inside the address
     * space and grants @p needed. Syscall argument validation uses
     * this to reject guest-supplied buffer pointers up front — a
     * guest-level error return instead of a host-side Fault halfway
     * through the operation. Every span the range overlaps must grant
     * @p needed, so a range crossing a region boundary needs it on
     * both sides.
     */
    bool rangeAccessible(Addr addr, uint32_t len,
                         Perm needed) const noexcept;

    /** Instruction fetch: like read but requires PermX. */
    uint8_t fetch8(Addr addr) const;
    /**
     * Copy up to @p len bytes at @p addr into @p out, stopping at the
     * first byte that is not executable or lies beyond the address
     * space; returns the count copied. The containing span is found
     * once and whole executable spans are copied at a time.
     */
    size_t fetchBytes(Addr addr, uint8_t *out, size_t len) const;

    /**
     * Raw access without permission checks — used by the loader, the
     * stack transformer, and the attacker model (which by assumption
     * has an arbitrary read/write primitive).
     */
    uint8_t rawRead8(Addr addr) const;
    uint32_t rawRead32(Addr addr) const;
    void rawWrite8(Addr addr, uint8_t v);
    void rawWrite32(Addr addr, uint32_t v);
    void rawWriteBytes(Addr addr, const uint8_t *src, size_t len);
    void rawReadBytes(Addr addr, uint8_t *dst, size_t len) const;

    /**
     * Zero [base, base+len) without permission checks. Used when a
     * crashed worker process respawns: its data/heap/stack image is
     * wiped before the fat binary is reloaded, so the new generation
     * starts from a pristine address space. Only dirty pages are
     * written — a clean page is already zero — so the cost is the
     * pages the guest touched, not @p len. A dirty page the range
     * covers whole turns clean, and then layoutEpoch() moves.
     */
    void zeroRange(Addr base, uint32_t len);

    /**
     * True if the page containing @p addr (< size()) may hold a
     * non-zero byte: some write path stored to it since zeroRange()
     * last cleaned it. A clean page is all zero.
     */
    bool pageDirty(Addr addr) const
    {
        return _dirty[addr >> kPageShift] != 0;
    }

    /** Direct pointer into the backing store (attacker disclosures). */
    const uint8_t *data() const { return _bytes; }
    /**
     * Mutable backing-store base for the trace JIT, whose compiled
     * code addresses guest memory as [base + addr] after passing the
     * same span-hint window checks the interpreter uses. The mapping
     * is made once at construction and never moves (a Memory is
     * neither copied nor moved), so the pointer stays valid across a
     * run. Compiled stores stay inside write windows, whose probes
     * marked their pages dirty.
     */
    uint8_t *jitBase() { return _bytes; }
    uint32_t size() const { return kSize; }

    /**
     * Monotonic stamp of the span-hint validity, bumped on every
     * region change and whenever zeroRange() turns a dirty page clean.
     * Cached hint windows (the trace JIT's persistent per-op tables)
     * are valid only while this stands still: a region change can
     * revoke a permission, and a cleaned page would no longer be
     * marked for the write windows that cover it.
     */
    uint64_t layoutEpoch() const { return _layoutEpoch; }

    /**
     * Monotonic stamp of the executable bytes: bumped on every region
     * change and by every raw write or zeroRange() that touches an
     * executable byte. While it stands still, decoding any pc yields
     * the same instruction, so decoded-instruction caches (the
     * reference interpreter's) are valid only under the stamp they
     * were filled with.
     *
     * W^X makes this sound without a check on the checked paths: no
     * region is both writable and executable (setRegion enforces it),
     * and checked writes and the trace JIT's hinted stores require
     * PermW, so they never change code.
     */
    uint64_t codeEpoch() const { return _codeEpoch; }

    /**
     * Journaling: while enabled, checked writes record the bytes they
     * overwrite; rollback() restores them (newest first). The gadget
     * sandbox uses this to execute thousands of candidate gadgets
     * against one loaded image without copying it.
     */
    void beginJournal();
    void rollback();
    bool journaling() const { return _journaling; }

  private:
    /** Size of the (fixed) address space. */
    static constexpr uint32_t kSize = layout::kMemEnd;
    static_assert(kSize % kPageBytes == 0);

    void journalBytes(Addr addr, unsigned len);

    /** Mark the page(s) of a 4-byte store at @p addr dirty. */
    void markDirty4(Addr addr) noexcept
    {
        _dirty[addr >> kPageShift] = 1;
        _dirty[(addr + 3) >> kPageShift] = 1;
    }

    /** Mark every page of the non-empty range [addr, addr+len). */
    void markDirty(Addr addr, uint64_t len) noexcept
    {
        const uint64_t last = (addr + len - 1) >> kPageShift;
        for (uint64_t p = addr >> kPageShift; p <= last; ++p)
            _dirty[p] = 1;
    }

    /** Index of the span containing @p addr (< size()). */
    size_t spanIndex(Addr addr) const noexcept
    {
        size_t lo = 0, hi = _spans.size() - 1;
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (addr < _spans[mid].end)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    /**
     * True iff some span overlapping the non-empty in-bounds range
     * [addr, addr+len) satisfies @p pred on its permission.
     */
    template <typename Pred>
    bool anySpanIn(Addr addr, uint64_t len, Pred pred) const noexcept
    {
        const uint64_t end = static_cast<uint64_t>(addr) + len;
        for (size_t i = spanIndex(addr);; ++i) {
            if (pred(static_cast<Perm>(_spans[i].perm)))
                return true;
            if (_spans[i].end >= end)
                return false;
        }
    }

    /** Bump codeEpoch() if a raw write to the range changes code. */
    void noteRawWrite(Addr addr, uint64_t len) noexcept
    {
        if (len != 0 &&
            anySpanIn(addr, len, [](Perm p) { return (p & PermX) != 0; }))
            ++_codeEpoch;
    }

    void check(Addr addr, unsigned len, Perm needed) const;

    /** Shared body of probe32Span/probe8Span. */
    bool probeSpan(SpanHint &h, Addr addr, unsigned len,
                   Perm needed) noexcept
    {
        if (!checkOk(addr, len, needed))
            return false;
        refillHint(h, addr, len);
        if (needed & PermW)
            boundWriteHint(h, addr, len);
        return true;
    }

    /**
     * Point @p h at the widest window around @p addr for which a
     * @p len-byte access with the just-verified permission stays
     * legal: base addresses within the containing span whose first
     * byte rule and the address-space bound both hold. Caller has
     * already passed checkOk(addr, len, perm).
     */
    void refillHint(SpanHint &h, Addr addr, unsigned len) const noexcept
    {
        const size_t lo = spanIndex(addr);
        h.lo = lo == 0 ? 0 : _spans[lo - 1].end;
        Addr span_last = _spans[lo].end - 1;
        Addr bound_last = kSize - len;
        h.hi = span_last < bound_last ? span_last : bound_last;
    }

    /**
     * Narrow a freshly refilled write window to the bases whose
     * @p len-byte store stays inside the page(s) of the access at
     * @p addr, and mark those pages dirty.
     */
    void boundWriteHint(SpanHint &h, Addr addr, unsigned len) noexcept
    {
        const Addr first = addr >> kPageShift;
        const Addr last = (addr + len - 1) >> kPageShift;
        _dirty[first] = 1;
        _dirty[last] = 1;
        const Addr page_lo = first << kPageShift;
        const Addr page_hi = ((last + 1) << kPageShift) - len;
        if (h.lo < page_lo)
            h.lo = page_lo;
        if (h.hi > page_hi)
            h.hi = page_hi;
    }

    bool checkOk(Addr addr, unsigned len, Perm needed) const noexcept
    {
        if (static_cast<uint64_t>(addr) + len > kSize)
            return false;
        return (permAt(addr) & needed) == needed;
    }

    struct Region
    {
        Addr base;
        uint32_t size;
        Perm perm;
        std::string name;
    };

    /**
     * One cell of the flattened permission partition: covers up to
     * (exclusive) @c end with @c perm. Spans are sorted, contiguous
     * from 0, and always terminate at the address-space end, so
     * permAt resolves with a binary search instead of replaying the
     * region list's definition order.
     */
    struct Span
    {
        Addr end;
        uint8_t perm;
    };

    /** Recompute _spans from _regions (definition order wins). */
    void rebuildSpans();

    uint8_t *_bytes; ///< kSize bytes, zero until first written
    /** One byte per page: nonzero iff the page may be non-zero. */
    std::array<uint8_t, kSize / kPageBytes> _dirty{};
    std::vector<Region> _regions;
    std::vector<Span> _spans;
    uint64_t _layoutEpoch = 0; ///< see layoutEpoch()
    uint64_t _codeEpoch = 0;   ///< see codeEpoch()
    bool _journaling = false;
    std::vector<std::pair<Addr, uint8_t>> _journal;
};

} // namespace hipstr

#endif // HIPSTR_ISA_MEMORY_HH
