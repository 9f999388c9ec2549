/**
 * @file
 * Hardware Return Address Table (RAT) model.
 *
 * PSR mandates that return addresses stored on the stack always point
 * at *source* code. The call macro-op inserts a mapping from the
 * source return address to its translated location; the return
 * macro-op performs the reverse translation with a one-cycle penalty
 * (Section 5.1). A RAT miss traps to the translator. Figure 11 sweeps
 * the table size from 32 to 2048 entries.
 */

#ifndef HIPSTR_SIM_RAT_HH
#define HIPSTR_SIM_RAT_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"
#include "support/serialize.hh"

namespace hipstr
{

struct TranslatedBlock;

/** Set-associative return address table with LRU replacement. */
class ReturnAddressTable
{
  public:
    /**
     * @param entries total entry count (power of two >= ways)
     * @param ways    associativity (default 4)
     */
    explicit ReturnAddressTable(unsigned entries, unsigned ways = 4);

    /**
     * Install source -> translated mapping (the call macro-op).
     * @p block optionally memoizes the resolved translation so a hit
     * needs no code-cache lookup; callers must flush() whenever the
     * memoized pointers die (every code-cache flush already does).
     */
    void insert(Addr source, Addr translated,
                TranslatedBlock *block = nullptr);

    /**
     * Translate a source return address (the return macro-op).
     * @retval true on hit; @p translated receives the mapping.
     */
    bool lookup(Addr source, Addr &translated);

    /**
     * Translate plus block memo: on a hit, @p block receives the
     * memoized translation (nullptr when none was installed).
     */
    bool lookup(Addr source, Addr &translated,
                TranslatedBlock *&block);

    /** Remove every entry (code cache flush invalidates the RAT). */
    void flush();

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    uint64_t insertions() const { return _insertions; }
    unsigned entries() const { return _entries; }

    /** Per-lookup latency in cycles (the paper's 1-cycle penalty). */
    static constexpr unsigned kLookupCycles = 1;

    /**
     * Checkpoint the table contents and LRU/hit counters. The block
     * memo pointers die with the code cache and are NOT serialized:
     * a restored entry carries block == nullptr, so the first return
     * through it takes the existing stale-memo path (silent refetch,
     * still a RAT hit) and the translation rebuilds cold. loadState
     * requires identical geometry (entries/ways) and throws
     * SerializeError otherwise. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);
    /** @} */

  private:
    struct Entry
    {
        bool valid = false;
        Addr source = 0;
        Addr translated = 0;
        /** Memoized translation (invalidated by flush()). */
        TranslatedBlock *block = nullptr;
        uint64_t lastUse = 0;
    };

    /** Checkpoint field walk after the geometry (serialize.hh). */
    template <class Io, class Self>
    static void fields(Io &io, Self &rat);

    unsigned _entries;
    unsigned _ways;
    unsigned _sets;
    std::vector<Entry> _table; ///< _sets x _ways
    uint64_t _tick = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    uint64_t _insertions = 0;

    size_t setIndex(Addr source) const;
};

} // namespace hipstr

#endif // HIPSTR_SIM_RAT_HH
