/**
 * @file
 * TraceOp -> x86-64 lowering for the trace JIT.
 *
 * compileTrace() turns one SuperblockTrace op stream into a
 * self-contained host function `void entry(JitFrame *)` following the
 * pinned-register convention described in engine.hh: r12 = &VmStats,
 * r13 = JitFrame, r14 = guest-memory base, r15 = &state.regs[0]; a
 * whole-trace register allocator maps the most-used guest registers
 * onto rbp/rsi/rdi/r8-r11 (rbx is pinned to the trace's span-hint
 * table), and every exit path (side exit, fault, budget stop, helper
 * unwind) flushes them back to their architectural MachineState
 * slots, which double as the spill homes.
 *
 * The emitted code preserves the block loop's semantics exactly:
 * deterministic counters fold only at segment boundaries with the
 * same translate-time deltas, guest flags are materialized into
 * state.flags after every Cmp/Test via SETcc, and every memory
 * access is guarded by a span-hint window check against a *per-op*
 * hint slot that persists across entries (see engine.hh), so a
 * steady-state op almost never leaves the two-compare fast path.
 * Misses route to a C++ probe that refills the slot or records the
 * fault, then the op retries inline.
 */

#ifndef HIPSTR_VM_JIT_COMPILER_HH
#define HIPSTR_VM_JIT_COMPILER_HH

#include <cstdint>
#include <vector>

#include "vm/jit/emitter.hh"

namespace hipstr
{

struct SuperTrace;

namespace jit
{

/**
 * JitFrame::exitCode values — the contract between compiled code and
 * the engine's exit dispatch. kJitExitHelper means a C++ helper
 * already filled the TraceExit/VmRunResult; the others name which
 * epilogue path fired and leave exitOp pointing at the op.
 */
enum : uint32_t
{
    kJitExitHelper = 0, ///< helper filled stop/exit before unwinding
    kJitExitSide = 1,   ///< guard fired: side exit to the owner block
    kJitExitEnd = 2,    ///< TraceEnd: resume the owner at the boundary
    kJitExitFault = 3,  ///< memory fault recorded by the miss probe
    kJitExitBudget = 4, ///< guest budget reached at a segment edge
};

/**
 * Everything the compiler needs to know about the runtime layout,
 * resolved once by the engine via offsetof (the compiler itself
 * never includes the VM headers).
 */
struct CompileLayout
{
    /** JitFrame member offsets. @{ */
    int32_t frameStats = 0;
    int32_t frameMemBase = 0;
    int32_t frameRegs = 0;
    int32_t frameBudget = 0;
    int32_t frameExitCode = 0;
    int32_t frameExitOp = 0;
    int32_t frameOpHints = 0; ///< SpanHint* — one 8-byte slot per op
    /** @} */
    /** &state.flags - &state.regs[0] (flags bytes: zf sf cf of). */
    int32_t flagsOffFromRegs = 0;
    /** VmStats member offsets. @{ */
    int32_t statsGuestInsts = 0;
    int32_t statsHostInsts = 0;
    int32_t statsMemReads = 0;
    int32_t statsMemWrites = 0;
    int32_t statsTraceFollows = 0;
    /** @} */
    /** Out-of-line helpers (extern "C" in engine.cc). @{ */
    const void *memProbeHelper = nullptr;
    const void *segCallHelper = nullptr;
    /** @} */
};

/**
 * The compiler's per-compile tables. The caller keeps one beside its
 * Emitter so their capacity carries over from one compile to the
 * next; compileTrace clears them on entry.
 */
struct CompileScratch
{
    /** Deferred out-of-line exit blob. */
    struct ExitBlob
    {
        int label;
        uint32_t code;
        uint32_t opIdx;
    };
    /** Deferred hint-miss blob: call the probe, retry the op. */
    struct MissBlob
    {
        int label;
        uint32_t opIdx;
        int retryLabel;
    };

    std::vector<uint8_t> allocated; ///< guest regs with a host reg
    std::vector<int> opLabel;       ///< label per op (-1 if none)
    std::vector<ExitBlob> exitBlobs;
    std::vector<MissBlob> missBlobs;
};

/**
 * Compile @p tr into @p em, using @p scratch for the per-compile
 * tables. Every op shape has a template (formation
 * ends a trace at any instruction without one), so this declines only
 * traces whose size or counter deltas overflow the encodings (the
 * head block then runs in the block loop); on success em.code holds a
 * complete position-independent function.
 */
bool compileTrace(const SuperTrace &tr, const CompileLayout &lay,
                  Emitter &em, CompileScratch &scratch);

} // namespace jit
} // namespace hipstr

#endif // HIPSTR_VM_JIT_COMPILER_HH
