/**
 * @file
 * Reference interpreter ("native core") and the shared instruction
 * semantics used by the PSR virtual machines and the gadget sandbox.
 */

#ifndef HIPSTR_ISA_INTERP_HH
#define HIPSTR_ISA_INTERP_HH

#include <array>
#include <cstdint>
#include <functional>

#include "isa/exec_inline.hh"
#include "isa/guest_os.hh"
#include "isa/instruction.hh"
#include "isa/machine_state.hh"
#include "isa/memory.hh"

namespace hipstr
{

/**
 * Execute one decoded instruction. @p state.pc must point at the
 * instruction; on return it points at the successor (fall-through or
 * branch target). Control transfers use the plain hardware semantics —
 * Ret pops the return address from the top of stack. The PSR VM layers
 * its randomized-return handling above this function.
 *
 * Memory faults surface as ExecStatus::Faulted — a status return,
 * not an exception, so the per-instruction hot path of both the
 * interpreter and the PSR VM carries no try/catch setup. On a fault
 * no architectural state has been modified beyond what the hardware
 * would have committed before the faulting access (see the per-op
 * ordering in the implementation).
 *
 * @param os may be null when executing in a sandbox (Syscall then
 *           behaves as Exited so gadget chains terminate).
 *
 * This is the out-of-line wrapper around executeInstInline
 * (isa/exec_inline.hh); hot loops call the inline form directly.
 */
ExecStatus executeInst(const MachInst &mi, MachineState &state,
                       Memory &mem, GuestOs *os);

/** Why an interpreter run stopped. */
enum class StopReason
{
    Halted,    ///< guest executed Halt
    Exited,    ///< guest called Exit/Execve
    Fault,     ///< memory permission/bounds fault — a guest crash
    BadInst,   ///< undecodable bytes or misaligned pc — a guest crash
    StepLimit, ///< maxInsts reached
    VmExitHit  ///< VmExit encountered outside a VM — a guest crash
};

const char *stopReasonName(StopReason r);

/** Result of an interpreter run. */
struct RunResult
{
    StopReason reason = StopReason::StepLimit;
    uint64_t instsExecuted = 0;
    Addr stopPc = 0; ///< pc at the stop point (fault pc for crashes)

    bool crashed() const
    {
        return reason == StopReason::Fault ||
            reason == StopReason::BadInst ||
            reason == StopReason::VmExitHit;
    }
};

/**
 * The reference core: decodes and executes guest code directly from
 * memory with no translation or randomization. Native-performance
 * baselines and differential tests run on this.
 *
 * Each pc is decoded once: a direct-mapped cache of decoded
 * instructions, tagged by pc, sits in front of decodeInst. The whole
 * cache is dropped whenever Memory::codeEpoch() or state.isa differs
 * from the values it was filled under, so a hit always equals what a
 * fresh decode would return. Failed decodes are never cached.
 */
class Interpreter
{
  public:
    Interpreter(IsaKind isa, Memory &mem, GuestOs &os);

    /** Architectural state, publicly accessible for test setup. */
    MachineState state;

    /** Run until a stop condition or @p maxInsts instructions. */
    RunResult run(uint64_t maxInsts);

    /**
     * Optional per-instruction observer (used by the timing model and
     * by trace-based tests). Called after successful execution.
     */
    std::function<void(const MachInst &, Addr pc)> traceHook;

  private:
    /** One cache line: the decode of the instruction at @c pc. */
    struct Decoded
    {
        uint64_t pc; ///< wider than Addr so kNoPc matches no pc
        MachInst mi;
    };

    /**
     * Lines in the decode cache. The table lives inside the object,
     * not in a separate heap block (see DESIGN.md, "Decode once").
     */
    static constexpr size_t kDecodedLines = 4096;
    /** Tag of an empty line. */
    static constexpr uint64_t kNoPc = ~uint64_t(0);

    /** Empty every line and restamp with the current epoch and ISA. */
    void flushDecoded();

    Memory &_mem;
    GuestOs &_os;
    uint64_t _decodedEpoch = 0;
    IsaKind _decodedIsa = IsaKind::Cisc;
    std::array<Decoded, kDecodedLines> _decoded;
};

} // namespace hipstr

#endif // HIPSTR_ISA_INTERP_HH
