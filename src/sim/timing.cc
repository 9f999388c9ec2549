#include "timing.hh"

#include "support/logging.hh"
// Header-only use: the timing pointer and VmStats. The sim library
// has no link dependency on the VM.
#include "vm/psr_vm.hh"

namespace hipstr
{

RegCacheSim::RegCacheSim(unsigned entries) : _entries(entries)
{
    hipstr_assert(entries >= 1);
}

bool
RegCacheSim::accessWord(Addr word_addr)
{
    _lastAddr = word_addr;
    ++_tick;
    Entry *victim = &_entries[0];
    for (Entry &e : _entries) {
        if (e.valid && e.addr == word_addr) {
            e.lastUse = _tick;
            ++_hits;
            return true;
        }
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->addr = word_addr;
    victim->lastUse = _tick;
    ++_misses;
    return false;
}

void
RegCacheSim::reset()
{
    for (Entry &e : _entries)
        e.valid = false;
    _lastAddr = kNoAddr;
    _hits = 0;
    _misses = 0;
    _tick = 0;
}

TimingHarness::TimingHarness(IsaKind isa, bool reg_cache_on,
                             unsigned reg_cache_entries)
    : _core(coreConfig(isa)),
      _icache(_core.icacheBytes, _core.icacheWays),
      _dcache(_core.dcacheBytes, _core.dcacheWays),
      _l0(reg_cache_entries), _regCacheOn(reg_cache_on)
{
}

void
TimingHarness::attachVm(PsrVm &vm)
{
    vm.timing = this;
}

void
TimingHarness::attachInterpreter(Interpreter &interp)
{
    interp.setRunEntry(
        [](Interpreter &ip, void *harness, uint64_t max_insts) {
            TimingHarness &h = *static_cast<TimingHarness *>(harness);
            return ip.runWith(
                max_insts,
                [&h](const MachInst &mi, Addr pc) {
                    h.nativeStep(mi, pc);
                },
                [&h](Addr addr, bool) { h.data(addr); });
        },
        this);
}

TimingSnapshot
TimingHarness::snapshot() const
{
    TimingSnapshot t;
    t.icacheMisses = _icache.misses();
    t.dcacheMisses = _dcache.misses();
    t.stackCost = _stackAccessCost;
    t.nativeInsts = _nativeInsts;
    t.nativeSyscalls = _nativeSyscalls;
    return t;
}

double
TimingHarness::vmCyclesSince(const VmStats &b, const VmStats &a,
                             const TimingSnapshot &t0) const
{
    double cycles = double(a.hostInsts - b.hostInsts) / _core.baseIpc;
    cycles += double(_icache.misses() - t0.icacheMisses) *
        params.l1MissCycles;
    cycles += double(_dcache.misses() - t0.dcacheMisses) *
        params.l1MissCycles;
    cycles += double(_stackAccessCost - t0.stackCost) *
        params.stackAccessCycles;
    cycles += double(a.dispatches - b.dispatches) *
        params.dispatchCycles;
    cycles += double(a.translatedGuestInsts -
                     b.translatedGuestInsts) *
        params.translateCyclesPerGuestInst;
    cycles += double(a.ratHits - b.ratHits) *
        double(ReturnAddressTable::kLookupCycles);
    cycles += double(a.ratMisses - b.ratMisses) *
        params.ratMissCycles;
    cycles += double(a.cacheFlushes - b.cacheFlushes) *
        params.cacheFlushCycles;
    cycles += double(a.syscalls - b.syscalls) * params.syscallCycles;
    cycles += double(a.diversificationFlips -
                     b.diversificationFlips) *
        params.isomeronFlipCycles;
    return cycles;
}

double
TimingHarness::nativeCyclesSince(const TimingSnapshot &t0) const
{
    double cycles =
        double(_nativeInsts - t0.nativeInsts) / _core.baseIpc;
    cycles += double(_icache.misses() - t0.icacheMisses) *
        params.l1MissCycles;
    cycles += double(_dcache.misses() - t0.dcacheMisses) *
        params.l1MissCycles;
    cycles += double(_stackAccessCost - t0.stackCost) *
        params.stackAccessCycles;
    cycles += double(_nativeSyscalls - t0.nativeSyscalls) *
        params.syscallCycles;
    return cycles;
}

double
TimingHarness::vmCycles(const VmStats &s) const
{
    return vmCyclesSince(VmStats{}, s, TimingSnapshot{});
}

double
TimingHarness::nativeCycles() const
{
    return nativeCyclesSince(TimingSnapshot{});
}

} // namespace hipstr
