/**
 * @file
 * Superblock traces: hot chains of translated blocks straight-lined
 * into a single pre-decoded op stream that the trace JIT
 * (jit::TraceJit) compiles to host code, so on-trace blocks never
 * return to the dispatcher between one another.
 *
 * The layer sits strictly *behind* the dispatcher: traces are built
 * only from edges the dispatcher already chained, every off-trace
 * branch is a side-exit guard that resumes the ordinary block loop at
 * the guarded instruction, and every indirect transfer (returns,
 * indirect jumps/calls, syscall redirects) ends the trace so the SFI
 * check and the Section 3.5 code-cache-miss policy run on the one
 * path that always ran them. Deterministic counters are folded from
 * the translate-time running totals at trace boundaries exactly as
 * the block loop folds them at block boundaries, so every counter the
 * benches export is byte-identical with the trace tier on or off;
 * only chainFollows/traceFollows split (an on-trace edge counts as a
 * traceFollow instead of a chainFollow), and neither feeds the timing
 * model or a deterministic BENCH json.
 *
 * Invalidation composes with the flush protocol: a trace records the
 * code-cache flush generation at formation; any flush (capacity,
 * fault-injected, re-randomization) retires every trace before its
 * block pointers can be re-followed, and a trace that triggers a
 * capacity flush mid-run (call-linkage translation) abandons itself
 * at that boundary without touching another trace-held pointer.
 */

#ifndef HIPSTR_VM_SUPERBLOCK_HH
#define HIPSTR_VM_SUPERBLOCK_HH

#include <memory>
#include <vector>

#include "core/psr_config.hh"
#include "core/translator.hh"

namespace hipstr
{

class CodeCache;

/**
 * Trace op shape. Each value selects one code template in the trace
 * JIT (vm/jit/compiler.cc). The straight-line values are the
 * straight-line ExecShapes (isa/exec_shape.hh), value for value, so
 * formation turns a TInst's stamped shape into its handler with a
 * cast; an instruction with no straight-line shape never enters a
 * trace: formation ends the trace at it.
 */
enum class TraceH : uint16_t
{
    HIPSTR_STRAIGHT_SHAPE_ENUMERATORS
    // The ALU family ends here: traceAluIndex() relies on JccGuard
    // following its last shape.
    JccGuard,    ///< off-trace conditional: taken => side exit
    SegBranch,   ///< on-trace direct branch edge (block stub exit)
    SegBranchCc, ///< on-trace conditional edge (dominant taken)
    SegCall,     ///< on-trace direct call edge (emits call linkage)
    TraceEnd,    ///< resume the owner block at the boundary inst
    NumHandlers
};

#define HIPSTR_SAME_SHAPE(s)                                          \
    static_assert(static_cast<int>(TraceH::s) ==                      \
                  static_cast<int>(ExecShape::s));
#define HIPSTR_SAME_ALU_SHAPES(op)                                    \
    HIPSTR_SAME_SHAPE(op##RR) HIPSTR_SAME_SHAPE(op##RI)               \
    HIPSTR_SAME_SHAPE(op##RM) HIPSTR_SAME_SHAPE(op##MR)               \
    HIPSTR_SAME_SHAPE(op##MI)
HIPSTR_MOVE_FLAG_STACK_SHAPES(HIPSTR_SAME_SHAPE)
HIPSTR_ALU_OPS(HIPSTR_SAME_ALU_SHAPES)
#undef HIPSTR_SAME_ALU_SHAPES
#undef HIPSTR_SAME_SHAPE
static_assert(static_cast<unsigned>(TraceH::JccGuard) ==
              kNumStraightShapes);

/** The handler of straight-line shape @p s. */
constexpr TraceH
traceHandler(ExecShape s)
{
    return static_cast<TraceH>(s);
}

/**
 * Index of @p h within the ALU family, or -1 for any other handler
 * (aluIndex() of the same shape).
 */
inline int
traceAluIndex(TraceH h)
{
    if (h >= TraceH::JccGuard)
        return -1;
    return aluIndex(static_cast<ExecShape>(h));
}

/**
 * One pre-decoded trace operation. Compiled shapes read only the
 * flat fields (registers, displacements, immediates); the source
 * TInst pointer serves the fault fold. The owning segment +
 * instruction index let any op reconstruct the exact resume/stop
 * point of the baseline block loop.
 */
struct TraceOp
{
    TraceH h = TraceH::TraceEnd;
    uint8_t a = 0;         ///< dst reg / mem base / stack pointer reg
    uint8_t b = 0;         ///< src reg / mem base
    uint8_t c = 0;         ///< second src reg / mem base
    Cond cond = Cond::Eq;  ///< JccGuard / SegBranchCc
    uint16_t seg = 0;      ///< owning segment index
    uint32_t instIdx = 0;  ///< index in the owner block's insts
    uint32_t imm = 0;      ///< displacement / immediate / edge target
    uint32_t imm2 = 0;     ///< second displacement / immediate / RA
    uint32_t jumpTo = 0;   ///< next op index for taken segment edges
    /**
     * Boundary fold deltas: the translate-time inclusive running
     * totals at the boundary instruction (credited base is always 0
     * inside a trace segment — traces exclude mid-block folds). @{
     */
    uint32_t guestD = 0;
    uint32_t readsD = 0;
    uint32_t writesD = 0;
    /** @} */
    const TInst *ti = nullptr; ///< source instruction (fault fold)
};

/** One spliced block of a trace. */
struct TraceSegment
{
    TranslatedBlock *blk = nullptr;
    Addr guestPc = 0; ///< blk->srcStart (the block loop's block_pc)
};

/** A formed superblock trace, owned by the TraceEngine. */
struct SuperTrace
{
    Addr headPc = 0;
    uint64_t flushGen = 0; ///< code-cache flush count at formation
    bool loopBack = false; ///< last edge jumps to op 0 (hot loop)
    std::vector<TraceOp> ops;
    std::vector<TraceSegment> segs;

    /**
     * Trace-JIT metadata, embedded here (rather than keyed on the
     * trace pointer in a side table) so the compiled-entry lifetime
     * is exactly the trace lifetime — a recycled allocation can never
     * alias another trace's code. @c gen is the executable arena's
     * generation at compile time; a stale stamp means the bytes may
     * have been reclaimed and the trace is recompiled on next entry.
     */
    struct JitInfo
    {
        const void *entry = nullptr; ///< compiled body, or nullptr
        uint64_t gen = 0;            ///< arena generation stamp
        /**
         * Persistent per-op span-hint slots (one per TraceOp; only
         * memory ops consult theirs) and the Memory layout epoch
         * they were refilled under — the JIT engine clears the table
         * when the epoch moves. See jit::JitFrame.
         */
        std::vector<Memory::SpanHint> hints;
        uint64_t hintEpoch = 0;
    } jit;
};

/** How a trace run hands control back to the dispatch loop. */
enum class TraceExitKind : uint8_t
{
    Stop,      ///< VmRunResult filled in; the run is over
    Resume,    ///< continue the block loop at (blk, instIdx), credited 0
    DispatchTo ///< trace abandoned after a mid-trace flush: dispatch
               ///< target through the ordinary (counting) slow path
};

struct TraceExit
{
    TraceExitKind kind = TraceExitKind::Stop;
    TranslatedBlock *blk = nullptr;
    uint32_t instIdx = 0;
    Addr target = 0;
};

/** Formation/retirement counters (host-side observability only). */
struct TraceStats
{
    uint64_t formed = 0;
    uint64_t attempts = 0;
    uint64_t invalidated = 0;
};

/**
 * Owns every trace of one VM. Formation walks dominant chained edges;
 * invalidation moves live traces to a retired list (freed only at
 * safe points, so a trace that flushed the cache out from under
 * itself stays addressable until it unwinds).
 */
class TraceEngine
{
  public:
    /**
     * Try to build a trace headed at @p head. Returns the installed
     * trace (head->strace set) or nullptr when no dominant chain
     * exists yet. @p flush_gen is the code cache's current flush
     * count; @p sp_reg the ISA's stack-pointer register index.
     */
    SuperTrace *tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                        uint8_t sp_reg, bool isomeron,
                        uint64_t flush_gen);

    /** Retire every live trace (any code-cache flush). */
    void invalidateAll();

    /** Free retired traces; call only outside trace execution. */
    void collectRetired() { _retired.clear(); }

    size_t liveCount() const { return _live.size(); }

    /**
     * Live traces that currently hold a compiled JIT body — the ones
     * a code-cache flush retires *as compiled code* (the jit.invalidated
     * counter); traces stranded by an arena reset are not retired and
     * recompile lazily instead.
     */
    size_t
    liveJittedCount() const
    {
        size_t n = 0;
        for (const auto &t : _live)
            if (t->jit.entry != nullptr)
                ++n;
        return n;
    }

    TraceStats stats;

  private:
    std::vector<std::unique_ptr<SuperTrace>> _live;
    std::vector<std::unique_ptr<SuperTrace>> _retired;
};

} // namespace hipstr

#endif // HIPSTR_VM_SUPERBLOCK_HH
