#include "rat.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace hipstr
{

ReturnAddressTable::ReturnAddressTable(unsigned entries, unsigned ways)
    : _entries(entries), _ways(ways)
{
    hipstr_assert(entries >= ways);
    hipstr_assert(entries % ways == 0);
    _sets = entries / ways;
    hipstr_assert(isPowerOf2(_sets));
    _table.resize(entries);
}

size_t
ReturnAddressTable::setIndex(Addr source) const
{
    // Return addresses are dense and arbitrarily aligned in the code
    // section; a multiplicative hash spreads neighbouring call sites
    // across sets regardless of their stride.
    uint32_t h = source * 2654435761u;
    return (h >> 16) & (_sets - 1);
}

void
ReturnAddressTable::insert(Addr source, Addr translated,
                           TranslatedBlock *block)
{
    ++_tick;
    ++_insertions;
    Entry *set = &_table[setIndex(source) * _ways];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < _ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.source == source) {
            e.translated = translated;
            e.block = block;
            e.lastUse = _tick;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->source = source;
    victim->translated = translated;
    victim->block = block;
    victim->lastUse = _tick;
}

bool
ReturnAddressTable::lookup(Addr source, Addr &translated)
{
    TranslatedBlock *ignored;
    return lookup(source, translated, ignored);
}

bool
ReturnAddressTable::lookup(Addr source, Addr &translated,
                           TranslatedBlock *&block)
{
    ++_tick;
    Entry *set = &_table[setIndex(source) * _ways];
    for (unsigned w = 0; w < _ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.source == source) {
            e.lastUse = _tick;
            translated = e.translated;
            block = e.block;
            ++_hits;
            return true;
        }
    }
    ++_misses;
    return false;
}

template <class Io, class Self>
void
ReturnAddressTable::fields(Io &io, Self &rat)
{
    io.u64(rat._tick);
    io.u64(rat._hits);
    io.u64(rat._misses);
    io.u64(rat._insertions);
    for (auto &e : rat._table) {
        io.boolean(e.valid);
        io.u32(e.source);
        io.u32(e.translated);
        io.u64(e.lastUse);
    }
}

void
ReturnAddressTable::saveState(ByteWriter &w) const
{
    w.u32(_entries);
    w.u32(_ways);
    fields(w, *this);
}

void
ReturnAddressTable::loadState(ByteReader &r)
{
    uint32_t entries = r.u32();
    uint32_t ways = r.u32();
    if (entries != _entries || ways != _ways)
        throw SerializeError(SerializeErrc::Corrupt,
                             "RAT geometry mismatch");
    flush();
    fields(r, *this);
}

void
ReturnAddressTable::flush()
{
    for (Entry &e : _table) {
        e.valid = false;
        e.block = nullptr;
    }
}

} // namespace hipstr
