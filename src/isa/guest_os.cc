#include "guest_os.hh"

#include "support/logging.hh"

namespace hipstr
{

void
GuestOs::emit(uint8_t b)
{
    fnvByte(_outputHash, b);
    ++_totalOutputBytes;
    _output.push_back(b);
    // Amortized trim: let the buffer run to twice the cap, then drop
    // the oldest bytes in one erase. The retained window is a pure
    // function of (stream, cap) — never of when callers observed it.
    if (_outputCap != 0 && _output.size() > 2 * _outputCap) {
        _output.erase(_output.begin(),
                      _output.begin() +
                          static_cast<std::ptrdiff_t>(_output.size() -
                                                      _outputCap));
    }
}

std::vector<uint8_t>
GuestOs::drainOutput()
{
    std::vector<uint8_t> drained = std::move(_output);
    _output.clear();
    return drained;
}

bool
GuestOs::handleSyscall(MachineState &state, Memory &mem)
{
    (void)mem;
    const IsaDescriptor &desc = isaDescriptor(state.isa);
    uint32_t number = state.reg(desc.retReg);
    uint32_t a1 = state.reg(desc.argRegs[1]);
    uint32_t a2 = state.reg(desc.argRegs[2]);
    uint32_t a3 = state.reg(desc.argRegs[3]);

    switch (static_cast<SyscallNo>(number)) {
      case SyscallNo::Exit:
        _exited = true;
        _exitCode = a1;
        return false;
      case SyscallNo::WriteBuf: {
        uint32_t len = a2 > 4096 ? 4096 : a2;
        // Validate the whole buffer before the first emit: a bad
        // guest pointer is the guest's bug, answered with -1 and no
        // partial output — never a host-side Fault mid-stream.
        if (!mem.rangeAccessible(a1, len, PermR)) {
            state.setReg(desc.retReg, static_cast<uint32_t>(-1));
            return true;
        }
        for (uint32_t i = 0; i < len; ++i)
            emit(mem.read8(a1 + i));
        emit(static_cast<uint8_t>(a3));
        state.setReg(desc.retReg, len);
        return true;
      }
      case SyscallNo::WriteByte:
        emit(static_cast<uint8_t>(a1));
        state.setReg(desc.retReg, 1);
        return true;
      case SyscallNo::WriteWord:
        emit(static_cast<uint8_t>(a1));
        emit(static_cast<uint8_t>(a1 >> 8));
        emit(static_cast<uint8_t>(a1 >> 16));
        emit(static_cast<uint8_t>(a1 >> 24));
        state.setReg(desc.retReg, 4);
        return true;
      case SyscallNo::Brk: {
        uint32_t old = _brk;
        if (a1 > _brk && a1 < layout::kStackLimit)
            _brk = a1;
        state.setReg(desc.retReg, old);
        return true;
      }
      case SyscallNo::Execve:
        _execveFired = true;
        _execveArgs = { a1, a2, a3 };
        return false;
      case SyscallNo::SetJmp: {
        // jmp_buf: [sp, resume, value, callee-saved...]. Physical
        // register state is captured, which makes the buffer valid
        // under any relocation map of the same randomization
        // generation (the map renames uses, not the registers'
        // identities at a syscall boundary).
        const uint32_t buf_len = 12 +
            4 * static_cast<uint32_t>(desc.calleeSaved.size());
        if (!mem.rangeAccessible(a1, buf_len, PermW)) {
            state.setReg(desc.retReg, static_cast<uint32_t>(-1));
            return true;
        }
        mem.write32(a1 + 0, state.sp());
        mem.write32(a1 + 4, a2);
        mem.write32(a1 + 8, 0);
        const auto &saved = desc.calleeSaved;
        for (size_t i = 0; i < saved.size(); ++i)
            mem.write32(a1 + 12 + 4 * static_cast<uint32_t>(i),
                        state.reg(saved[i]));
        state.setReg(desc.retReg, 0);
        return true;
      }
      case SyscallNo::LongJmp: {
        // The buffer must be readable throughout and writable at the
        // value slot before any register or pc is touched — a corrupt
        // jmp_buf pointer must not half-restore the machine.
        const uint32_t buf_len = 12 +
            4 * static_cast<uint32_t>(desc.calleeSaved.size());
        if (!mem.rangeAccessible(a1, buf_len, PermR) ||
            !mem.rangeAccessible(a1 + 8, 4, PermW)) {
            state.setReg(desc.retReg, static_cast<uint32_t>(-1));
            return true;
        }
        uint32_t sp = mem.read32(a1 + 0);
        Addr resume = mem.read32(a1 + 4);
        mem.write32(a1 + 8, a2 ? a2 : 1);
        const auto &saved = desc.calleeSaved;
        for (size_t i = 0; i < saved.size(); ++i)
            state.setReg(saved[i],
                         mem.read32(a1 + 12 +
                                    4 * static_cast<uint32_t>(i)));
        state.setSp(sp);
        state.pc = resume;
        _redirected = true;
        return true;
      }
      case SyscallNo::Getpid:
        state.setReg(desc.retReg, 4242);
        return true;
      default:
        // Unknown syscall: return -1, keep running (like ENOSYS).
        state.setReg(desc.retReg, static_cast<uint32_t>(-1));
        return true;
    }
}

void
GuestOs::saveState(ByteWriter &w) const
{
    w.boolean(_redirected);
    w.u64(_outputHash);
    w.u64(_totalOutputBytes);
    w.boolean(_exited);
    w.u32(_exitCode);
    w.boolean(_execveFired);
    for (uint32_t a : _execveArgs)
        w.u32(a);
    w.u32(_brk);
    w.u32(uint32_t(_output.size()));
    w.bytes(_output.data(), _output.size());
}

void
GuestOs::loadState(ByteReader &r)
{
    _redirected = r.boolean();
    _outputHash = r.u64();
    _totalOutputBytes = r.u64();
    _exited = r.boolean();
    _exitCode = r.u32();
    _execveFired = r.boolean();
    for (uint32_t &a : _execveArgs)
        a = r.u32();
    _brk = r.u32();
    uint32_t retained = r.u32();
    _output.resize(retained);
    r.bytes(_output.data(), retained);
}

void
GuestOs::reset()
{
    _output.clear();
    _outputHash = kFnvOffsetBasis;
    _totalOutputBytes = 0;
    _exited = false;
    _exitCode = 0;
    _execveFired = false;
    _execveArgs = {};
    _redirected = false;
    _brk = layout::kHeapBase;
}

} // namespace hipstr
