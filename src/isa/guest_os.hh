/**
 * @file
 * Minimal guest operating-system interface: system calls, program
 * output collection, and detection of the attacker's goal (execve).
 */

#ifndef HIPSTR_ISA_GUEST_OS_HH
#define HIPSTR_ISA_GUEST_OS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/machine_state.hh"
#include "isa/memory.hh"
#include "support/fnv.hh"
#include "support/serialize.hh"

namespace hipstr
{

/**
 * Handles guest system calls. The syscall number travels in the ISA's
 * return register (r0 / ax) and arguments in argRegs[1..3]
 * (r1-r3 / bx,cx,dx), mirroring the execve(eax=11, ebx, ecx, edx)
 * convention the paper's brute-force experiment targets.
 *
 * Program output (WriteByte/WriteWord) is accumulated and checksummed;
 * the VM-equivalence tests compare these checksums between native and
 * PSR execution.
 *
 * Long-lived guests (the server subsystem's worker processes) would
 * grow the retained output without bound, so the checksum is folded
 * incrementally on every emitted byte: outputChecksum() covers the
 * full stream ever written, while the retained buffer can be bounded
 * with setOutputCap() and emptied with drainOutput() without
 * disturbing the checksum.
 */
class GuestOs
{
  public:
    GuestOs() = default;

    /**
     * Execute the system call encoded in @p state.
     * @return true if the guest should keep running, false on Exit
     *         or Execve (which ends the program).
     */
    bool handleSyscall(MachineState &state, Memory &mem);

    /**
     * Retained output written via WriteByte/WriteWord/WriteBuf. With a
     * cap set this is a bounded tail of the stream (oldest bytes are
     * dropped once the retained size would exceed the cap).
     */
    const std::vector<uint8_t> &output() const { return _output; }

    /**
     * FNV-1a checksum of the complete output stream since the last
     * reset() — independent of the retention cap and of drains.
     */
    uint64_t outputChecksum() const { return _outputHash; }

    /** Bytes written since the last reset(), capped or not. */
    uint64_t totalOutputBytes() const { return _totalOutputBytes; }

    /**
     * Bound the retained output buffer to @p cap bytes (0 = unlimited,
     * the default). The checksum and total-byte accounting are
     * unaffected; only retention is.
     */
    void setOutputCap(size_t cap) { _outputCap = cap; }
    size_t outputCap() const { return _outputCap; }

    /**
     * Move the retained output out, leaving it empty. Checksum and
     * totals are preserved — a server can drain each worker's output
     * after every request and still verify the whole-run checksum.
     */
    std::vector<uint8_t> drainOutput();

    bool exited() const { return _exited; }
    uint32_t exitCode() const { return _exitCode; }

    /** True once the guest (or an attacker chain) invoked execve. */
    bool execveFired() const { return _execveFired; }
    /** Argument registers captured at the execve invocation. */
    const std::array<uint32_t, 3> &execveArgs() const
    {
        return _execveArgs;
    }

    void reset();

    /**
     * Checkpoint the OS-visible program state: exit/execve status,
     * the brk pointer, the retained output tail AND the running
     * checksum + total-byte counters. The checksum capture is what
     * lets a restored guest's whole-run outputChecksum() match the
     * uninterrupted run even when output was drained before the
     * snapshot. The retention cap is configuration, not state, and
     * is not serialized. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);
    /** @} */

    /**
     * True exactly once after a syscall redirected the program
     * counter (longjmp): the execution engine must dispatch to the
     * already-written state.pc instead of falling through.
     */
    bool takeRedirect()
    {
        bool r = _redirected;
        _redirected = false;
        return r;
    }

  private:
    /** Checkpoint field walk (support/serialize.hh). */
    template <class Io, class Self>
    static void fields(Io &io, Self &os);

    /** Append one output byte: fold the checksum, honor the cap. */
    void emit(uint8_t b);

    bool _redirected = false;
    std::vector<uint8_t> _output;
    size_t _outputCap = 0; ///< retained-bytes cap; 0 = unlimited
    uint64_t _outputHash = kFnvOffsetBasis; ///< FNV-1a running
    uint64_t _totalOutputBytes = 0;
    bool _exited = false;
    uint32_t _exitCode = 0;
    bool _execveFired = false;
    std::array<uint32_t, 3> _execveArgs{};
    Addr _brk = layout::kHeapBase;
};

} // namespace hipstr

#endif // HIPSTR_ISA_GUEST_OS_HH
