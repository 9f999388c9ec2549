/**
 * @file
 * The PSR virtual machine: a just-in-time dynamic translation engine
 * (Figure 2) that executes guest code exclusively out of its code
 * cache, applies the PSR transformations per function, routes returns
 * through the hardware Return Address Table, enforces the
 * software-fault-isolation rules of Section 5.1, and raises a
 * security event on every indirect control transfer that misses the
 * code cache (Section 3.5) — the trigger HIPStR uses for
 * probabilistic cross-ISA migration.
 */

#ifndef HIPSTR_VM_PSR_VM_HH
#define HIPSTR_VM_PSR_VM_HH

#include <functional>
#include <memory>
#include <unordered_set>

#include "binary/fatbin.hh"
#include "core/psr_config.hh"
#include "core/relocation.hh"
#include "core/translator.hh"
#include "isa/guest_os.hh"
#include "isa/machine_state.hh"
#include "isa/memory.hh"
#include "sim/rat.hh"
#include "support/serialize.hh"
#include "telemetry/metrics.hh"
#include "telemetry/phase.hh"
#include "telemetry/trace.hh"
#include "vm/code_cache.hh"
#include "vm/jit/engine.hh"
#include "vm/superblock.hh"

namespace hipstr
{

class TimingHarness;

/** Why a VM run stopped. */
enum class VmStop
{
    Exited,            ///< guest called Exit/Execve
    Halted,            ///< guest executed Halt
    Fault,             ///< guest memory fault (crash)
    BadInst,           ///< undecodable guest target (crash)
    SfiViolation,      ///< control or return pointer into the code
                       ///< cache — process terminated (Section 5.1)
    StepLimit,         ///< instruction budget exhausted
    MigrationRequested ///< security hook asked for an ISA switch
};

constexpr size_t kNumVmStops =
    static_cast<size_t>(VmStop::MigrationRequested) + 1;

const char *vmStopName(VmStop s);

/** Result of a VM run. */
struct VmRunResult
{
    VmStop reason = VmStop::StepLimit;
    Addr stopPc = 0;          ///< guest pc at the stop
    Addr migrationTarget = 0; ///< resume target (MigrationRequested)

    bool crashed() const
    {
        return reason == VmStop::Fault || reason == VmStop::BadInst ||
            reason == VmStop::SfiViolation;
    }
};

/** Runtime counters the timing model and the benches consume. */
struct VmStats
{
    uint64_t guestInsts = 0;     ///< guest instructions retired
    uint64_t hostInsts = 0;      ///< translated instructions executed
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t dispatches = 0;     ///< dispatcher entries (unchained)
    uint64_t chainFollows = 0;   ///< direct block-to-block transfers
    /**
     * Block-to-block transfers retired inside a compiled superblock
     * trace. With the trace tier off (or a run on the plain block
     * loop) these edges count as chainFollows instead; every other
     * counter in this struct is byte-identical either way (neither
     * chainFollows nor traceFollows feeds the timing model or a
     * deterministic bench export).
     */
    uint64_t traceFollows = 0;
    uint64_t translations = 0;
    uint64_t translatedGuestInsts = 0;
    uint64_t ratHits = 0;
    uint64_t ratMisses = 0;
    uint64_t indirectTransfers = 0;
    uint64_t codeCacheMisses = 0; ///< indirect transfers that missed
    uint64_t securityEvents = 0;  ///< == codeCacheMisses (Section 3.5)
    uint64_t migrationsRequested = 0;
    uint64_t cacheFlushes = 0;
    uint64_t syscalls = 0;
    /** Isomeron-mode coin flips (one per call and per return). */
    uint64_t diversificationFlips = 0;
};

/**
 * One PSR virtual machine, bound to one ISA of the fat binary.
 * HIPStR instantiates one per core and moves execution between them.
 */
class PsrVm
{
  public:
    PsrVm(const FatBinary &bin, IsaKind isa, Memory &mem, GuestOs &os,
          const PsrConfig &cfg);

    /** Architectural guest state (public for migration/tests). */
    MachineState state;

    /**
     * Security-event hook: invoked with the offending target when an
     * indirect control transfer misses the code cache. Return true to
     * request migration (the run stops with MigrationRequested).
     * Unset => never migrate (single-ISA PSR).
     */
    std::function<bool(Addr target)> securityEventHook;

    /**
     * Optional timing model (set by TimingHarness::attachVm). While
     * set, run() takes the timed block loop, which calls its inline
     * fetch() for every translated instruction and data() for every
     * data access, in execution order.
     */
    TimingHarness *timing = nullptr;

    /**
     * Optional control-transfer trace: called with the guest target
     * and a kind tag ('B'ranch, 'C'all, 'I'ndirect, 'R'eturn,
     * 'J' syscall redirect/longjmp) at every dispatch-level transfer.
     * Used by differential tests; together the kinds observe every
     * transfer the dispatcher accounts, so across runs that stop at
     * an instruction boundary (Exited/Halted/StepLimit)
     *   dispatches + chainFollows + ratHits + traceFollows
     *     == hook invocations + run entries
     * (each run() entry dispatches once without a hook call; a run
     * killed mid-transfer may have called the hook for the very
     * transfer whose dispatch was then denied). A run with the hook
     * installed uses the plain block loop — it neither enters nor
     * forms traces — so there traceFollows stays 0.
     */
    std::function<void(Addr target, char kind)> controlTraceHook;

    /**
     * Optional structured-trace sink (TraceCategory::Vm: run slices,
     * translations, security events, re-randomizations). nullptr (the
     * default) costs one branch at each cold hook site; the
     * per-instruction loop has no hook sites at all.
     */
    telemetry::TraceBuffer *trace = nullptr;

    /**
     * Cumulative Translate phase profile: one invocation per unit
     * translated, work units are guest instructions, modeled cost
     * charges TimingParams::translateCyclesPerGuestInst at this
     * core's frequency. Never reset (cache flushes re-accrue).
     */
    telemetry::PhaseStats translatePhase;

    /** Block entries before a head is considered for trace formation. */
    static constexpr unsigned kTraceHotThreshold = 32;

    /** Point the VM at the program entry with a fresh stack. */
    void reset();

    /**
     * Run until a stop condition or @p max_guest_insts.
     *
     * The run dispatches once, up front, onto a timed or an untimed
     * loop. Both take data-access counts from the translate-time
     * totals baked into each translated instruction; only the timed
     * loop (a timing harness attached) forms the data addresses of
     * the instructions that access memory. The untimed loop performs
     * no per-instruction checks, and it forms and enters compiled
     * traces when the JIT is on and neither a control-trace hook nor
     * memory journaling is live; those gates are checked once per
     * run, never per trace entry.
     */
    VmRunResult run(uint64_t max_guest_insts);

    /**
     * Respawn behaviour (Section 5.3): flush the code cache and RAT
     * and generate fresh relocation maps, as happens when a worker
     * thread re-spawns after a crash.
     */
    void reRandomize();

    /**
     * Fault injection (src/fault): arm a decode fault — the next
     * run() stops immediately with BadInst at the current pc, as if
     * the decoder tripped over a corrupted code-cache entry. One-shot;
     * disarmed when consumed or by disarmDecodeFault() (respawn).
     * @{
     */
    void armDecodeFault() { _decodeFaultArmed = true; }
    void disarmDecodeFault() { _decodeFaultArmed = false; }
    /** @} */

    /**
     * Fault injection: a spurious code-cache + RAT flush (a transient
     * translator fault). Unlike reRandomize() the relocation maps are
     * untouched — the guest just pays retranslation, no crash.
     */
    void flushTranslations();

    /** Superblock trace formation observability. @{ */
    const TraceStats &traceStats() const { return _traces.stats; }
    size_t liveTraces() const { return _traces.liveCount(); }
    /** @} */

    /**
     * Mirror the trace counters (trace.formed/follows/invalidated)
     * into @p reg. Host-side observability only — callers must not
     * route this into a deterministic bench registry, since trace
     * coverage legitimately changes with HIPSTR_JIT.
     */
    void publishTraceTelemetry(telemetry::MetricRegistry &reg) const;

    /**
     * Trace-tier observability: whether trace formation and the JIT
     * are active for this VM (jitMode resolved against HIPSTR_JIT,
     * O1+, host support) and the engine counters. Like the trace
     * counters these are host-side only — coverage changes with
     * HIPSTR_JIT, so they must never feed a deterministic bench
     * registry. @{
     */
    bool jitEnabled() const { return _jitOn; }
    const jit::JitStats &jitStats() const { return _jit.stats; }
    /** The engine itself (arena occupancy assertions in jit_smoke). */
    const jit::TraceJit &jitEngine() const { return _jit; }
    void publishJitTelemetry(telemetry::MetricRegistry &reg) const;
    /** @} */

    /**
     * Checkpointing (src/replay): serialize the architectural state,
     * stats, RAT contents, relocation maps and randomization
     * generation, plus the set of source addresses that held a
     * resident translation. The code cache, superblock traces and
     * inline caches are deliberately NOT serialized — loadState
     * flushes them and they rebuild cold through the normal
     * flush-generation contract. The vetted-address set keeps the
     * Section 3.5 security-event stream identical after a restore:
     * an indirect transfer to a vetted address translates silently
     * (the uninterrupted run would have hit the cache there) instead
     * of raising a spurious event. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);

    /**
     * True if @p src currently has a resident translation, or had
     * one at the checkpoint this VM was restored from (cold rebuild
     * still pending). Attack staging uses this instead of a raw
     * cache probe so candidate selection is restore-invariant.
     */
    bool
    wasTranslated(Addr src)
    {
        return _cache.lookup(src) != nullptr ||
            _vetted.count(src) != 0;
    }
    /** @} */

    IsaKind isa() const { return _isa; }
    VmStats stats;
    CodeCache &codeCache() { return _cache; }
    const CodeCache &codeCache() const { return _cache; }
    ReturnAddressTable &rat() { return _rat; }
    Randomizer &randomizer() { return _randomizer; }
    const Randomizer &randomizer() const { return _randomizer; }
    GuestOs &os() { return _os; }
    Memory &mem() { return _mem; }
    const FatBinary &binary() const { return _bin; }
    const PsrConfig &config() const { return _cfg; }

  private:
    /** Checkpoint field walk between the ISA byte and the vetted
     *  set (support/serialize.hh). */
    template <class Io, class Self>
    static void fields(Io &io, Self &vm);

    /** Fetch (lookup or translate) the unit at @p src. */
    TranslatedBlock *fetchBlock(Addr src, VmRunResult &stop);
    /**
     * The run loop, specialized on whether a timing harness is
     * attached. The timed loop never forms or enters traces.
     */
    template <bool Timed>
    VmRunResult runLoop(uint64_t max_guest_insts);

    /**
     * Dispatch-loop transfer helpers; the trace JIT shares
     * emitCallLinkage so both pay identical counter semantics. Each
     * returns nullptr/false with @p stop filled when the run must
     * end. @{
     */
    TranslatedBlock *dispatchTo(Addr target, VmRunResult &stop);
    /** Count an indirect transfer and apply the SFI rule (Section
        5.1): a target inside the code cache kills the process. */
    bool sfiAdmits(Addr target, VmRunResult &stop);
    /** The Section 3.5 policy for an indirect transfer that missed
        the code cache: a security event unless restore-vetted. */
    TranslatedBlock *cacheMiss(Addr target, VmRunResult &stop);
    TranslatedBlock *indirectResolve(Addr target, VmRunResult &stop);
    /** A return macro-op to @p target, translated through the RAT. */
    TranslatedBlock *ratReturn(Addr target, VmRunResult &stop);
    bool emitCallLinkage(Addr source_ra, VmRunResult &stop);
    /** @} */

    /**
     * Retire every live trace, counting traces that held compiled
     * JIT code into jit.invalidated first, and mark the JIT arena
     * for a rewind at its next compile (a safe point). Wraps every
     * code-cache flush's invalidateAll so the two generation
     * protocols (cache flush count, arena generation) stay composed
     * in one place.
     */
    void
    invalidateTraces()
    {
        _jit.stats.invalidated += _traces.liveJittedCount();
        _traces.invalidateAll();
        _jit.tracesRetired();
    }

    /** Modeled timestamp of "now" for trace events (cold paths). */
    double traceTs() const;

    const FatBinary &_bin;
    IsaKind _isa;
    Memory &_mem;
    GuestOs &_os;
    PsrConfig _cfg;
    double _translateUsPerInst; ///< modeled translation cost/inst
    Randomizer _randomizer;
    PsrTranslator _translator;
    CodeCache _cache;
    ReturnAddressTable _rat;
    TraceEngine _traces;
    /** The trace JIT needs the dispatch internals its helpers mirror
        (emitCallLinkage, _cache, _mem, _os). */
    friend class jit::TraceJit;
    jit::TraceJit _jit;
    bool _jitOn = false; ///< jitMode resolved against HIPSTR_JIT +
                         ///< host support; requires O1+
    bool _decodeFaultArmed = false;

    /**
     * Source addresses whose translations were cache-resident at the
     * checkpoint this VM was restored from. Empty except after
     * loadState(); drained as the cold cache rebuilds, and dropped
     * wholesale at the first cache flush — the uninterrupted run's
     * cache is empty after a flush, so vetting must not outlive it.
     */
    std::unordered_set<Addr> _vetted;
};

} // namespace hipstr

#endif // HIPSTR_VM_PSR_VM_HH
