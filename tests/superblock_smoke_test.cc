/**
 * @file
 * Superblock-trace smoke canaries (dispatch_smoke tier): the hot loop
 * actually forms traces, steady state retires its transfers through
 * them, and the flush-heavy tiny-cache configuration stays correct
 * with traces constantly invalidated under a running trace. Traces
 * exist only for the JIT to compile, so every test skips on hosts
 * where the JIT cannot run.
 */

#include <gtest/gtest.h>

#include <string>

#include "test_util.hh"
#include "vm/jit/engine.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

bool
jitHostOk()
{
    const char *reason = nullptr;
    return jit::TraceJit::hostSupported(&reason);
}

FatBinary
workloadBinary(const std::string &name)
{
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    return compileModule(buildWorkload(name, wcfg));
}

TEST(SuperblockSmoke, HotLoopFormsTraces)
{
    // The fig9 steady-state workload: its inner loop must cross the
    // formation threshold quickly and from then on execute as a
    // superblock trace, not as dispatcher-stitched blocks.
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    FatBinary bin = workloadBinary("hmmer");
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.jitMode = PsrConfig::JitMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto warm = vm.run(50'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);
    ASSERT_TRUE(vm.jitEnabled());
    EXPECT_GE(vm.traceStats().formed, 1u);
    EXPECT_GT(vm.liveTraces(), 0u);
    EXPECT_GT(vm.stats.traceFollows, 0u);
}

TEST(SuperblockSmoke, SteadyStateRetiresThroughTraces)
{
    // After warmup, a measurement slice must retire the bulk of its
    // block-to-block transfers on trace edges: trace follows dominate
    // chain follows, and the dispatcher stays out of the picture.
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    FatBinary bin = workloadBinary("hmmer");
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.jitMode = PsrConfig::JitMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto warm = vm.run(50'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);

    const VmStats before = vm.stats;
    auto r = vm.run(100'000);
    ASSERT_EQ(r.reason, VmStop::StepLimit);
    const uint64_t trace_follows =
        vm.stats.traceFollows - before.traceFollows;
    const uint64_t chain_follows =
        vm.stats.chainFollows - before.chainFollows;
    const uint64_t dispatches =
        vm.stats.dispatches - before.dispatches;
    EXPECT_GT(trace_follows, 1000u)
        << "steady state should run through superblock traces";
    EXPECT_GT(trace_follows, chain_follows)
        << "trace edges should dominate residual chain follows";
    EXPECT_LT(dispatches * 100, trace_follows + chain_follows)
        << "dispatcher entered " << dispatches
        << " times in a traced steady-state slice";
}

TEST(SuperblockSmoke, TinyCacheFlushHeavyStaysCorrect)
{
    // 1 KiB cache: traces form over blocks that flush out from under
    // them constantly, including flushes a trace's own call linkage
    // triggers mid-run. The guest-visible outcome must match the
    // reference interpreter exactly.
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    for (const std::string &name : { std::string("httpd"),
                                     std::string("mcf") }) {
        FatBinary bin = workloadBinary(name);
        for (IsaKind isa : kAllIsas) {
            const std::string label = name + "/" + isaName(isa);
            auto native = test::runNative(bin, isa);
            ASSERT_EQ(native.result.reason, StopReason::Exited)
                << label;
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.codeCacheBytes = 1024;
            cfg.jitMode = PsrConfig::JitMode::On;
            PsrVm vm(bin, isa, mem, os, cfg);
            vm.reset();
            auto r = vm.run(400'000'000);
            ASSERT_EQ(r.reason, VmStop::Exited)
                << label << ": " << vmStopName(r.reason) << " at 0x"
                << std::hex << r.stopPc;
            EXPECT_EQ(os.exitCode(), native.exitCode) << label;
            EXPECT_EQ(os.outputChecksum(), native.outputChecksum)
                << label;
            EXPECT_GT(vm.stats.cacheFlushes, 0u)
                << label << ": cache not small enough";
            EXPECT_EQ(vm.traceStats().invalidated,
                      vm.traceStats().formed - vm.liveTraces())
                << label;
        }
    }
}

} // namespace
} // namespace hipstr
