/**
 * @file
 * Cycle-approximate timing model.
 *
 * Converts an execution (native interpreter or PSR virtual machine)
 * into cycles on one of Table 1's cores: issue-width-limited base IPC,
 * L1 instruction/data cache simulation, the hardware RAT's 1-cycle
 * return translation and miss traps, dispatcher and translation costs
 * for the VM, the 3-entry global register cache of Section 5.4
 * (modeled as an L0 filter over stack accesses), and Isomeron's
 * per-flip shepherding cost.
 *
 * Absolute cycle counts are not claimed — the evaluation reproduces
 * *relative* overheads (PSR optimization levels, entropy levels, RAT
 * and code-cache sizing, Isomeron comparison), which a calibrated
 * model of this form preserves.
 */

#ifndef HIPSTR_SIM_TIMING_HH
#define HIPSTR_SIM_TIMING_HH

#include <cstdint>
#include <vector>

#include "isa/interp.hh"
#include "isa/mem_traffic.hh"
#include "sim/cache.hh"
#include "sim/core_config.hh"

namespace hipstr
{

class PsrVm;
struct VmStats;

/** Cost constants (cycles). */
struct TimingParams
{
    double l1MissCycles = 14;
    double stackAccessCycles = 1.0; ///< charged per L0-missing
                                     ///< stack access (PSR slot
                                     ///< traffic; spills in native)
    double dispatchCycles = 40;      ///< VM dispatcher entry
    double translateCyclesPerGuestInst = 240;
    double ratMissCycles = 28;
    double cacheFlushCycles = 9000;
    double syscallCycles = 90;
    double isomeronFlipCycles = 26;  ///< program-shepherding cost per
                                     ///< call/return coin flip
};

/**
 * Tiny fully-associative word cache (the global register cache), with
 * true-LRU replacement and CacheSim's exact same-line shortcut applied
 * to the word address: a repeat of the previous word is a hit with no
 * walk and no tick (see CacheSim for why that leaves every later
 * result unchanged).
 */
class RegCacheSim
{
  public:
    explicit RegCacheSim(unsigned entries);
    /** @retval true on hit (the access is register-speed). */
    bool
    access(Addr word_addr)
    {
        if (word_addr == _lastAddr) {
            ++_hits;
            return true;
        }
        return accessWord(word_addr);
    }
    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        Addr addr = 0;
        uint64_t lastUse = 0;
    };
    /** Matches no 32-bit word address. */
    static constexpr uint64_t kNoAddr = ~uint64_t(0);

    /** The full walk for @p word_addr. */
    bool accessWord(Addr word_addr);

    std::vector<Entry> _entries;
    uint64_t _lastAddr = kNoAddr; ///< word of the previous access
    uint64_t _tick = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
};

/** Counter snapshot for steady-state (delta) measurement. */
struct TimingSnapshot
{
    uint64_t icacheMisses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t stackCost = 0;
    uint64_t nativeInsts = 0;
    uint64_t nativeSyscalls = 0;
};

/**
 * Attaches to one execution engine, simulates its memory hierarchy,
 * and produces cycle counts.
 *
 * The engines call the harness directly: the PSR VM's timed block
 * loop calls fetch() and data() inline through PsrVm::timing, and an
 * attached interpreter runs a loop instantiated with the harness's
 * per-instruction step. Neither path goes through a std::function.
 */
class TimingHarness
{
  public:
    /**
     * @param isa            which core of Table 1
     * @param reg_cache_on   global register cache enabled (PSR >= O2)
     * @param reg_cache_entries 3 in the paper
     */
    TimingHarness(IsaKind isa, bool reg_cache_on,
                  unsigned reg_cache_entries = 3);

    /** Point @p vm's timed block loop at this harness. */
    void attachVm(PsrVm &vm);

    /**
     * Install this harness's timed run entry on @p interp: every
     * later run() simulates the fetch and data traffic of each
     * instruction it executes, before executing it.
     */
    void attachInterpreter(Interpreter &interp);

    /** One instruction fetch at @p addr (the I-cache stream). */
    void fetch(Addr addr) { _icache.access(addr); }

    /**
     * One data access at @p addr (the D-cache stream). Stack words
     * go through the global register cache first when it is on; a
     * hit there is register speed and never reaches the D-cache.
     */
    void
    data(Addr addr)
    {
        if (addr >= layout::kStackLimit) {
            if (_regCacheOn && _l0.access(addr >> 2))
                return;
            ++_stackAccessCost;
        }
        _dcache.access(addr);
    }

    /** Current counter values (for delta measurement). */
    TimingSnapshot snapshot() const;

    /** Cycles for a VM execution with this harness attached. */
    double vmCycles(const VmStats &stats) const;
    /** Steady-state variant: only the work after the snapshots. */
    double vmCyclesSince(const VmStats &before,
                         const VmStats &after,
                         const TimingSnapshot &t0) const;

    /** Cycles for a native run traced through this harness. */
    double nativeCycles() const;
    /** Steady-state variant. */
    double nativeCyclesSince(const TimingSnapshot &t0) const;

    double
    seconds(double cycles) const
    {
        return cycles / (_core.freqGhz * 1e9);
    }

    const CoreConfig &core() const { return _core; }

    TimingParams params;

  private:
    /**
     * Account one native instruction about to execute at @p pc:
     * memory traffic comes from forEachMemAccess, which the VM's
     * translate-time counts also derive from, so both engines count
     * the same accesses for the same instruction stream.
     */
    [[gnu::always_inline]] void
    nativeStep(const MachInst &mi, const MachineState &state, Addr pc)
    {
        ++_nativeInsts;
        fetch(pc);
        forEachMemAccess(mi, state,
                         [this](Addr addr, bool) { data(addr); });
        if (mi.op == Op::Syscall)
            ++_nativeSyscalls;
    }

    const CoreConfig &_core;
    CacheSim _icache;
    CacheSim _dcache;
    RegCacheSim _l0;
    bool _regCacheOn;
    uint64_t _nativeInsts = 0;
    uint64_t _nativeSyscalls = 0;
    uint64_t _stackAccessCost = 0; ///< L0-missing stack accesses
};

} // namespace hipstr

#endif // HIPSTR_SIM_TIMING_HH
