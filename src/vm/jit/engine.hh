/**
 * @file
 * Trace-JIT engine: owns the executable arena, compiles hot
 * superblock traces on first entry, and runs them with the exact
 * observable semantics of the block loop they replace. It is the only
 * executor of a formed trace.
 *
 * Execution contract: compiled code receives one JitFrame and runs
 * under four pinned registers (r12 = &VmStats, r13 = frame,
 * r14 = guest-memory base, r15 = &state.regs[0]). Every straight-line
 * op runs inline; only span-hint misses and SegCall linkage leave JIT
 * code, through extern "C" helpers that flush the allocated guest
 * registers to their MachineState homes first, so C++ always sees
 * (and may mutate) architectural state. On return
 * the frame's exitCode says which epilogue fired and run() finishes
 * the exit: side exits resume the owner block, faults fold the
 * translate-time cumulative counters, budget stops report StepLimit
 * at the edge target.
 *
 * Invalidation composes with the code-cache flush protocol at two
 * generations: a trace retired by any cache flush simply never
 * reaches run() again (the block's strace pointer is gone), and the
 * arena's own generation stamp catches traces stranded by an
 * arena-capacity reset — ensureCompiled() recompiles them lazily at
 * the next entry, which is always a safe point (no JIT frame live).
 * When a flush retires every live trace, tracesRetired() only marks
 * the arena for a rewind: the flush may run inside a helper called
 * from the very trace it retires, so the next ensureCompiled()
 * performs the rewind instead.
 *
 * Installing a body is a page-local W^X flip (ExecArena::install):
 * only the one or two pages the copy covers are ever writable, and
 * never while executable.
 */

#ifndef HIPSTR_VM_JIT_ENGINE_HH
#define HIPSTR_VM_JIT_ENGINE_HH

#include <cstdint>

#include "isa/memory.hh"
#include "vm/jit/arena.hh"
#include "vm/superblock.hh"

namespace hipstr
{

class PsrVm;
struct VmRunResult;
struct VmStats;

namespace jit
{

/**
 * Per-entry execution frame. The leading members are read by
 * compiled code at fixed offsets (baked through CompileLayout); the
 * trailing pointers serve only the C++ helpers.
 *
 * opHints points at the trace's persistent per-op span-hint table
 * (SuperTrace::jit.hints, one SpanHint per TraceOp). Each memory op
 * owns its slot, so a loop that alternates between address-space
 * spans never thrashes a shared window and in steady state the
 * window check never misses. Persistence across entries is sound
 * because hint state is semantically invisible (a hit performs
 * exactly the access a checked tryRead32/tryWrite32, or the byte
 * variant for a byte op, would) and the
 * engine clears the table whenever Memory's layout epoch moves: on a
 * region change, or when zeroRange() cleans a page a write window
 * may cover (both happen only between trace runs — syscalls end
 * traces).
 */
struct JitFrame
{
    VmStats *stats = nullptr;
    uint8_t *memBase = nullptr;
    uint32_t *regs = nullptr;
    uint64_t guestBudget = 0;
    uint32_t exitCode = 0;
    uint32_t exitOp = 0;
    Memory::SpanHint *opHints = nullptr;
    /** Helper-only context (never touched by emitted code). @{ */
    PsrVm *vm = nullptr;
    SuperTrace *trace = nullptr;
    VmRunResult *stop = nullptr;
    TraceExit *exit = nullptr;
    /** @} */
};

/** Host-side observability counters (BENCH jit.* family). */
struct JitStats
{
    uint64_t compiledTraces = 0; ///< successful compilations
    uint64_t codeBytes = 0;      ///< total bytes of emitted code
    uint64_t executions = 0;     ///< compiled-trace entries
    uint64_t sideExits = 0;      ///< guard exits taken in JIT code
    uint64_t bailouts = 0;       ///< traces the compiler declined;
                                 ///< each head block then runs in
                                 ///< the block loop for good
    uint64_t invalidated = 0;    ///< compiled traces retired by a
                                 ///< code-cache flush
};

/**
 * One trace JIT per VM. Compilation is lazy (first entry of each
 * trace) and the arena is mapped on first use, so VMs that never form
 * a hot trace pay nothing.
 */
class TraceJit
{
  public:
    JitStats stats;

    /**
     * Execute @p tr under the JIT. Returns true with @p tx (and
     * possibly @p stop) filled; false when the trace cannot be
     * compiled (the caller counts a bailout and retires the head to
     * the block loop). Caller must have checked the per-run gates
     * (controlTraceHook, journaling).
     */
    bool run(PsrVm &vm, SuperTrace *tr, uint64_t guest_budget,
             VmRunResult &stop, TraceExit &tx);

    /**
     * Whether this build/host can run the JIT at all. On false,
     * @p reason names the blocker (host ISA, sanitizer build).
     */
    static bool hostSupported(const char **reason);

    /**
     * Every live trace was just retired (a code-cache flush or a
     * state load). Marks the arena for a rewind at the next compile;
     * never rewinds here, since the caller may be a helper running
     * under the JIT frame of a trace it retired.
     */
    void tracesRetired() { _rewindPending = true; }

    /** Arena occupancy, for tests. @{ */
    size_t arenaUsed() const { return _arena.used(); }
    uint64_t arenaGeneration() const { return _arena.generation(); }
    /** @} */

    /** extern "C" helper bodies (called from emitted code). @{ */
    static int memProbe(JitFrame *f, uint32_t op_idx);
    static int segCall(JitFrame *f, uint32_t op_idx);
    /** @} */

  private:
    ExecArena _arena;
    bool _arenaFailed = false;
    bool _rewindPending = false; ///< see tracesRetired()

    bool ensureCompiled(PsrVm &vm, SuperTrace *tr);
};

} // namespace jit
} // namespace hipstr

#endif // HIPSTR_VM_JIT_ENGINE_HH
