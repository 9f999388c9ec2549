/**
 * @file
 * Shared helpers for the test suite: compile-and-run plumbing and
 * small reference IR programs.
 */

#ifndef HIPSTR_TESTS_TEST_UTIL_HH
#define HIPSTR_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "binary/fatbin.hh"
#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "ir/builder.hh"
#include "ir/ir.hh"
#include "isa/guest_os.hh"
#include "isa/interp.hh"
#include "isa/memory.hh"

namespace hipstr::test
{

/** Outcome of a native (reference interpreter) run. */
struct NativeRun
{
    RunResult result;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    std::vector<uint8_t> output;
    uint64_t instsExecuted = 0;
};

/** Compile @p module once and run it natively on @p isa. */
inline NativeRun
runNative(const FatBinary &bin, IsaKind isa,
          uint64_t max_insts = 50'000'000)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    Interpreter interp(isa, mem, os);
    initMachineState(interp.state, bin, isa);

    NativeRun run;
    run.result = interp.run(max_insts);
    run.exitCode = os.exitCode();
    run.outputChecksum = os.outputChecksum();
    run.output = os.output();
    run.instsExecuted = run.result.instsExecuted;
    return run;
}

inline NativeRun
compileAndRun(const IrModule &module, IsaKind isa,
              uint64_t max_insts = 50'000'000)
{
    FatBinary bin = compileModule(module);
    return runNative(bin, isa, max_insts);
}

/** FNV-1a over the mutable data image (globals + heap). The stack is
 * excluded: slot coloring legitimately scatters its contents. */
inline uint64_t
dataChecksum(const Memory &mem)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (Addr a = layout::kGlobalsBase; a < layout::kStackLimit; ++a) {
        h ^= mem.rawRead8(a);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Address of the first page @p mem reports clean (pageDirty() false)
 * that holds a non-zero byte, or -1 if every clean page is all zero.
 * A write path that bypasses the dirty-page map shows up here.
 */
inline int64_t
firstNonZeroCleanPage(const Memory &mem)
{
    for (Addr page = 0; page < mem.size(); page += Memory::kPageBytes) {
        if (mem.pageDirty(page))
            continue;
        const uint8_t *p = mem.data() + page;
        for (uint32_t i = 0; i < Memory::kPageBytes; ++i) {
            if (p[i] != 0)
                return page;
        }
    }
    return -1;
}

} // namespace hipstr::test

#endif // HIPSTR_TESTS_TEST_UTIL_HH
