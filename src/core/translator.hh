/**
 * @file
 * The PSR basic-block translator (Figure 2's "Translation Engine" +
 * "Disassembler"), performing the paper's Section 5.1 transformations:
 *
 *  - addressing-mode transformation (registers renamed and, on Cisc,
 *    relocated to stack slots; slot displacements re-colored),
 *  - procedure-call transformation (randomized argument/return
 *    registers, relocated return-address slot, expanded frames),
 *  - legalization with register temporaries when the ISA lacks the
 *    addressing mode a relocation demands,
 *  - branch inlining / superblock formation (O1),
 *
 * and producing translated units that are simultaneously executable
 * (as decoded instructions) and byte-faithful (their encodings are
 * what lives in the code cache and what a JIT-ROP attacker can
 * disclose).
 */

#ifndef HIPSTR_CORE_TRANSLATOR_HH
#define HIPSTR_CORE_TRANSLATOR_HH

#include <memory>
#include <vector>

#include "binary/fatbin.hh"
#include "core/relocation.hh"
#include "isa/exec_shape.hh"
#include "isa/instruction.hh"
#include "isa/memory.hh"

namespace hipstr
{

struct TranslatedBlock;
struct SuperTrace;

/**
 * Per-site indirect-branch inline cache (IBTC): a tiny direct map
 * from recently dispatched guest targets to their translated blocks,
 * embedded in the owning exit so it is destroyed together with every
 * pointer it caches when the code cache flushes. The VM consults it
 * only *after* the SFI check and populates it only with targets that
 * completed the full Section 3.5 indirect-dispatch policy, so hot
 * virtual-call sites skip the hash map without changing which
 * transfers raise security events.
 */
struct IndirectTargetCache
{
    static constexpr unsigned kWays = 4;

    Addr targets[kWays] = {};
    TranslatedBlock *blocks[kWays] = {};
    uint8_t nextVictim = 0;

    TranslatedBlock *lookup(Addr target) const
    {
        for (unsigned w = 0; w < kWays; ++w) {
            if (targets[w] == target && blocks[w] != nullptr)
                return blocks[w];
        }
        return nullptr;
    }

    void insert(Addr target, TranslatedBlock *block)
    {
        for (unsigned w = 0; w < kWays; ++w) {
            if (blocks[w] == nullptr || targets[w] == target) {
                targets[w] = target;
                blocks[w] = block;
                return;
            }
        }
        targets[nextVictim] = target;
        blocks[nextVictim] = block;
        nextVictim = static_cast<uint8_t>((nextVictim + 1) % kWays);
    }
};

/** How control leaves a translated unit. */
struct BlockExit
{
    enum class Kind : uint8_t
    {
        Branch,       ///< direct branch to a static guest target
        Call,         ///< direct call (pushes a *source* return addr)
        IndirectJump, ///< target read from @c targetOperand at exit
        IndirectCall, ///< indirect call through @c targetOperand
        Halt          ///< guest halt
    };

    Kind kind = Kind::Branch;
    Addr target = 0;        ///< guest target (Branch/Call)
    Addr returnTo = 0;      ///< guest return address (calls)
    /** Post-transformation location of the target value (Indirect*). */
    Operand targetOperand;
    /** Filled by the VM once the target is translated (chaining). */
    TranslatedBlock *chained = nullptr;
    /** Inline cache for IndirectJump/IndirectCall exits (VM-filled). */
    IndirectTargetCache ibtc;
    /**
     * Times the untimed dispatch loop took this exit — the edge
     * profile the superblock trace builder reads to pick a block's
     * dominant successor. Never exported; dies with the block.
     */
    uint64_t hitCount = 0;
};

/** One translated instruction; exitIdx links Jcc/VmExit to an exit. */
struct TInst
{
    MachInst mi;
    int exitIdx = -1;
    /** First translated instruction of a guest instruction (used for
     *  dynamic guest-instruction accounting). */
    bool guestStart = false;
    /** Data-memory accesses of mi, precomputed at translate time so
     *  neither VM block loop counts accesses per operand. @{ */
    uint8_t memReads = 0;
    uint8_t memWrites = 0;
    /** @} */
    /** Byte offset within the unit's encoding (I-fetch modelling). */
    uint16_t byteOff = 0;
    /**
     * Execution shape driving the VM's one switch per instruction
     * (isa/exec_shape.hh): classifyExec(mi), except that a Jcc wired
     * to an exit, a Ret and a Syscall take the block-loop exit shapes
     * JccExit, RetExit and SyscallExit.
     */
    ExecShape shape = ExecShape::PerOp;
    /**
     * Inclusive running totals over the unit's instruction list, so
     * the VM credits whole straight-line runs with two subtractions
     * at each loop exit instead of per-instruction increments:
     * guestCum counts guestStart markers through this instruction;
     * memReadsCum/memWritesCum sum the translate-time data-access
     * counts of the instructions through this one that have no
     * block-loop exit shape (the exit shapes and VmExit account for
     * their own traffic in the VM). @{
     */
    uint32_t guestCum = 0;
    uint32_t memReadsCum = 0;
    uint32_t memWritesCum = 0;
    /** @} */
};

/** A translated unit (one or more guest blocks under superblocking). */
struct TranslatedBlock
{
    Addr srcStart = 0;           ///< guest entry address
    Addr srcEnd = 0;             ///< highest guest address decoded + 1
    uint32_t funcId = 0xffffffff; ///< containing function (or none)
    std::vector<TInst> insts;
    std::vector<BlockExit> exits;
    std::vector<uint8_t> bytes;  ///< position-independent encoding
    Addr cacheAddr = 0;          ///< assigned by the code cache
    uint64_t generation = 0;     ///< randomizer generation at creation
    unsigned guestInstCount = 0;
    unsigned guestBlocksInlined = 1;
    bool isLoopHead = false;     ///< entered from a backward branch

    /**
     * Superblock-trace bookkeeping (all VM-filled, none exported).
     * @c strace points at the trace headed by this block, owned by the
     * VM's TraceEngine; it is only ever set while the block is live
     * and every flush that destroys the block also invalidates the
     * trace. hotCount/traceFails drive formation; traceDead marks a
     * head the builder permanently gave up on. @{
     */
    SuperTrace *strace = nullptr;
    uint32_t hotCount = 0;
    uint8_t traceFails = 0;
    bool traceDead = false;
    /** @} */
};

/** Why a translation attempt failed. */
enum class TranslateError
{
    None,
    BadInstruction ///< guest bytes do not decode at the entry
};

/**
 * Translates guest code under a Randomizer's relocation maps. One
 * instance per (VM, ISA).
 */
class PsrTranslator
{
  public:
    PsrTranslator(const FatBinary &bin, IsaKind isa,
                  Randomizer &randomizer, Memory &mem);

    /**
     * Translate the unit starting at guest address @p guest_addr.
     * @returns nullptr (and sets @p err) if the entry does not decode.
     */
    std::unique_ptr<TranslatedBlock> translate(Addr guest_addr,
                                               TranslateError &err);

    /** Total units translated (for stats). */
    uint64_t unitsTranslated() const { return _unitsTranslated; }
    /** Total guest instructions processed (translation cost model). */
    uint64_t guestInstsTranslated() const
    {
        return _guestInstsTranslated;
    }

  private:
    friend class TranslationContext;

    const FatBinary &_bin;
    IsaKind _isa;
    Randomizer &_randomizer;
    Memory &_mem;
    uint64_t _unitsTranslated = 0;
    uint64_t _guestInstsTranslated = 0;
};

} // namespace hipstr

#endif // HIPSTR_CORE_TRANSLATOR_HH
