/**
 * @file
 * PSR virtual machine tests. The central invariant (Section 5.3,
 * "Legitimate execution"): a program running under PSR — with
 * randomized calling conventions, register relocation, and stack-slot
 * coloring — must behave exactly as it does natively, for every
 * workload, ISA, seed, and optimization level.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

struct VmRun
{
    VmRunResult result;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    VmStats stats;
};

VmRun
runUnderVm(const FatBinary &bin, IsaKind isa, const PsrConfig &cfg,
           uint64_t max_insts = 400'000'000)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRun out;
    out.result = vm.run(max_insts);
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.stats = vm.stats;
    return out;
}

IrModule
smallProgram()
{
    IrModule m;
    m.name = "small";
    IrBuilder b(m);
    uint32_t helper = b.declareFunction("helper", 2);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);

    b.beginFunction(helper);
    {
        ValueId s = b.mul(b.param(0), b.param(1));
        b.ret(b.addI(s, 7));
    }
    b.endFunction();

    b.beginFunction(main_fn);
    {
        ValueId acc = b.constI(0);
        ValueId i = b.constI(0);
        uint32_t hdr = b.newBlock(), body = b.newBlock(),
                 done = b.newBlock();
        b.br(hdr);
        b.setBlock(hdr);
        b.condBrI(Cond::Lt, i, 10, body, done);
        b.setBlock(body);
        ValueId r = b.call(helper, { i, b.addI(i, 1) });
        b.assignBinop(IrOp::Add, acc, acc, r);
        b.assignBinopI(IrOp::Add, i, i, 1);
        b.br(hdr);
        b.setBlock(done);
        b.emitWriteWord(acc);
        b.ret(acc);
    }
    b.endFunction();
    return m;
}

uint32_t
smallProgramExpected()
{
    uint32_t acc = 0;
    for (uint32_t i = 0; i < 10; ++i)
        acc += i * (i + 1) + 7;
    return acc;
}

TEST(PsrVm, PlainDbtMatchesNative)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    for (IsaKind isa : kAllIsas) {
        auto native = test::runNative(bin, isa);
        ASSERT_EQ(native.result.reason, StopReason::Exited);
        auto vm = runUnderVm(bin, isa, PsrConfig::noRandomization());
        ASSERT_EQ(vm.result.reason, VmStop::Exited)
            << isaName(isa) << ": "
            << vmStopName(vm.result.reason) << " at 0x" << std::hex
            << vm.result.stopPc;
        EXPECT_EQ(vm.exitCode, native.exitCode);
        EXPECT_EQ(vm.outputChecksum, native.outputChecksum);
        EXPECT_EQ(vm.exitCode, smallProgramExpected());
    }
}

TEST(PsrVm, FullPsrMatchesNativeOnSmallProgram)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    for (IsaKind isa : kAllIsas) {
        auto native = test::runNative(bin, isa);
        for (uint64_t seed : { 1ull, 2ull, 3ull, 99ull, 12345ull }) {
            PsrConfig cfg;
            cfg.seed = seed;
            auto vm = runUnderVm(bin, isa, cfg);
            ASSERT_EQ(vm.result.reason, VmStop::Exited)
                << isaName(isa) << " seed " << seed << ": "
                << vmStopName(vm.result.reason) << " at 0x"
                << std::hex << vm.result.stopPc;
            EXPECT_EQ(vm.exitCode, native.exitCode)
                << isaName(isa) << " seed " << seed;
            EXPECT_EQ(vm.outputChecksum, native.outputChecksum);
        }
    }
}

TEST(PsrVm, GuestInstCountsMatchNativeOrder)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    for (IsaKind isa : kAllIsas) {
        auto native = test::runNative(bin, isa);
        PsrConfig cfg;
        auto vm = runUnderVm(bin, isa, cfg);
        ASSERT_EQ(vm.result.reason, VmStop::Exited);
        // Guest instruction accounting should be close to the native
        // count (not exact: VM-handled terminators are attributed at
        // exits), and host instructions strictly larger under PSR.
        double ratio = double(vm.stats.guestInsts) /
            double(native.instsExecuted);
        EXPECT_GT(ratio, 0.8) << isaName(isa);
        EXPECT_LT(ratio, 1.2) << isaName(isa);
        EXPECT_GT(vm.stats.hostInsts, vm.stats.guestInsts)
            << isaName(isa);
    }
}

/** The centerpiece: workloads x ISAs x seeds under full PSR. */
class VmEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, IsaKind, uint64_t>>
{
};

TEST_P(VmEquivalence, PsrPreservesLegitimateExecution)
{
    auto [name, isa, seed] = GetParam();
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    IrModule m = buildWorkload(name, wcfg);
    FatBinary bin = compileModule(m);
    auto native = test::runNative(bin, isa, 400'000'000);
    ASSERT_EQ(native.result.reason, StopReason::Exited);

    PsrConfig cfg;
    cfg.seed = seed;
    auto vm = runUnderVm(bin, isa, cfg);
    ASSERT_EQ(vm.result.reason, VmStop::Exited)
        << name << "/" << isaName(isa) << " seed " << seed << ": "
        << vmStopName(vm.result.reason) << " at 0x" << std::hex
        << vm.result.stopPc;
    EXPECT_EQ(vm.exitCode, native.exitCode);
    EXPECT_EQ(vm.outputChecksum, native.outputChecksum);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, VmEquivalence,
    ::testing::Combine(::testing::ValuesIn(allWorkloadNames()),
                       ::testing::Values(IsaKind::Risc,
                                         IsaKind::Cisc),
                       ::testing::Values(7ull, 1234ull)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
            isaName(std::get<1>(info.param)) + "_s" +
            std::to_string(std::get<2>(info.param));
    });

TEST(PsrVm, OptimizationLevelsAllCorrect)
{
    IrModule m = buildWorkload("bzip2");
    FatBinary bin = compileModule(m);
    auto native = test::runNative(bin, IsaKind::Cisc, 400'000'000);
    for (unsigned level = 0; level <= 3; ++level) {
        PsrConfig cfg;
        cfg.optLevel = level;
        cfg.seed = 42 + level;
        auto vm = runUnderVm(bin, IsaKind::Cisc, cfg);
        ASSERT_EQ(vm.result.reason, VmStop::Exited)
            << "O" << level << ": "
            << vmStopName(vm.result.reason);
        EXPECT_EQ(vm.exitCode, native.exitCode) << "O" << level;
        EXPECT_EQ(vm.outputChecksum, native.outputChecksum);
    }
}

TEST(PsrVm, RandomizationSpaceSweepCorrect)
{
    IrModule m = buildWorkload("hmmer");
    FatBinary bin = compileModule(m);
    for (IsaKind isa : kAllIsas) {
        auto native = test::runNative(bin, isa, 400'000'000);
        for (uint32_t space : { 8u * 1024, 16u * 1024, 32u * 1024,
                                64u * 1024 }) {
            PsrConfig cfg;
            cfg.randSpaceBytes = space;
            cfg.seed = space;
            auto vm = runUnderVm(bin, isa, cfg);
            ASSERT_EQ(vm.result.reason, VmStop::Exited)
                << isaName(isa) << " space " << space << ": "
                << vmStopName(vm.result.reason) << " @0x" << std::hex
                << vm.result.stopPc;
            EXPECT_EQ(vm.exitCode, native.exitCode);
        }
    }
}

TEST(PsrVm, TinyCodeCacheStillCorrect)
{
    // A cache far too small for the working set forces continuous
    // flush + re-translate cycles; execution must stay correct.
    IrModule m = buildWorkload("mcf");
    FatBinary bin = compileModule(m);
    auto native = test::runNative(bin, IsaKind::Cisc, 400'000'000);
    PsrConfig cfg;
    cfg.codeCacheBytes = 1024;
    auto vm = runUnderVm(bin, IsaKind::Cisc, cfg);
    ASSERT_EQ(vm.result.reason, VmStop::Exited)
        << vmStopName(vm.result.reason);
    EXPECT_EQ(vm.exitCode, native.exitCode);
    EXPECT_GT(vm.stats.cacheFlushes, 0u);
}

TEST(PsrVm, CapacityFlushDuringCallLinkageStaysCorrect)
{
    // Regression test for a latent use-after-free: the Call exit path
    // reads exit.chained, then emit_call_linkage eagerly translates
    // the return point — which can trigger a capacity flush that
    // destroys every block, including the one the chained pointer
    // refers to. The dispatcher must detect the flush-generation
    // change and discard the stale pointer. A cache this small flushes
    // on nearly every translation, so call-heavy workloads force the
    // flush to land inside call linkage constantly.
    for (const char *name : { "httpd", "bzip2" }) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            auto native = test::runNative(bin, isa, 400'000'000);
            ASSERT_EQ(native.result.reason, StopReason::Exited);
            for (uint32_t cache_bytes : { 1024u, 2048u }) {
                PsrConfig cfg;
                cfg.codeCacheBytes = cache_bytes;
                auto vm = runUnderVm(bin, isa, cfg);
                ASSERT_EQ(vm.result.reason, VmStop::Exited)
                    << name << "/" << isaName(isa) << " cache "
                    << cache_bytes << ": "
                    << vmStopName(vm.result.reason) << " at 0x"
                    << std::hex << vm.result.stopPc;
                EXPECT_EQ(vm.exitCode, native.exitCode)
                    << name << "/" << isaName(isa);
                EXPECT_EQ(vm.outputChecksum, native.outputChecksum);
                EXPECT_GT(vm.stats.cacheFlushes, 0u)
                    << name << "/" << isaName(isa)
                    << ": cache not small enough to stress flushes";
            }
        }
    }
}

/**
 * Per-kind control-transfer counts observed through controlTraceHook,
 * and the dispatch-level accounting they must reconcile with.
 */
struct TransferCounts
{
    uint64_t branches = 0;   ///< 'B' (direct branch exits)
    uint64_t calls = 0;      ///< 'C' (direct call exits)
    uint64_t indirects = 0;  ///< 'I' (indirect call/jump exits)
    uint64_t returns = 0;    ///< 'R' (return exits)
    uint64_t redirects = 0;  ///< 'J' (syscall longjmp redirects)

    uint64_t total() const
    {
        return branches + calls + indirects + returns + redirects;
    }
};

void
expectDispatchAccounting(const VmStats &stats,
                         const TransferCounts &hooks,
                         uint64_t run_entries,
                         const std::string &label)
{
    // Every dispatch-level transfer resolves through exactly one of
    // the four mechanisms: a dispatcher entry, a chain follow, a
    // RAT-memoized return, or a superblock-trace edge. Each run()
    // entry dispatches once without a hook event. This is the
    // documented controlTraceHook invariant (vm/psr_vm.hh) — RAT
    // memoization, the per-site inline caches, and trace formation
    // must not add or drop a single transfer.
    EXPECT_EQ(stats.dispatches + stats.chainFollows + stats.ratHits +
                  stats.traceFollows,
              hooks.total() + run_entries)
        << label;
    // Indirect-transfer accounting is the security-policy input: one
    // per return, per indirect exit, and per syscall redirect, whether
    // or not the transfer was served from a RAT memo or an IBTC way.
    EXPECT_EQ(stats.indirectTransfers,
              hooks.returns + hooks.indirects + hooks.redirects)
        << label;
    // Every return consults the RAT exactly once.
    EXPECT_EQ(stats.ratHits + stats.ratMisses, hooks.returns)
        << label;
}

TEST(PsrVm, DispatchAccountingInvariant)
{
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            const std::string label = name + "/" + isaName(isa);
            PsrConfig cfg;
            cfg.seed = 7;

            // Reference run without any hook installed.
            auto plain = runUnderVm(bin, isa, cfg);
            ASSERT_EQ(plain.result.reason, VmStop::Exited) << label;

            // Observed run: count transfers by kind.
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrVm vm(bin, isa, mem, os, cfg);
            TransferCounts hooks;
            vm.controlTraceHook = [&](Addr, char kind) {
                switch (kind) {
                  case 'B': ++hooks.branches; break;
                  case 'C': ++hooks.calls; break;
                  case 'I': ++hooks.indirects; break;
                  case 'R': ++hooks.returns; break;
                  case 'J': ++hooks.redirects; break;
                  default: FAIL() << "unknown transfer kind " << kind;
                }
            };
            vm.reset();
            auto r = vm.run(400'000'000);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;

            expectDispatchAccounting(vm.stats, hooks, 1, label);

            // The control hook must be a pure observer: every counter
            // the timing model consumes is identical with and without
            // it. It does not toggle the fetch/data-hooked loop, but
            // it does keep the run off compiled traces, so on-trace
            // edges move from traceFollows to chainFollows and only
            // the conserved sum is comparable.
            EXPECT_EQ(vm.stats.guestInsts, plain.stats.guestInsts)
                << label;
            EXPECT_EQ(vm.stats.hostInsts, plain.stats.hostInsts)
                << label;
            EXPECT_EQ(vm.stats.memReads, plain.stats.memReads)
                << label;
            EXPECT_EQ(vm.stats.memWrites, plain.stats.memWrites)
                << label;
            EXPECT_EQ(vm.stats.dispatches, plain.stats.dispatches)
                << label;
            EXPECT_EQ(vm.stats.dispatches + vm.stats.chainFollows +
                          vm.stats.traceFollows,
                      plain.stats.dispatches + plain.stats.chainFollows +
                          plain.stats.traceFollows)
                << label;
            EXPECT_EQ(vm.stats.traceFollows, 0u) << label;
            EXPECT_EQ(vm.stats.ratHits, plain.stats.ratHits)
                << label;
            EXPECT_EQ(vm.stats.ratMisses, plain.stats.ratMisses)
                << label;
            EXPECT_EQ(vm.stats.indirectTransfers,
                      plain.stats.indirectTransfers)
                << label;
            EXPECT_EQ(vm.stats.securityEvents,
                      plain.stats.securityEvents)
                << label;
            // Legitimate execution may take one cold miss per
            // distinct indirect target (the first transfer before the
            // target is translated); the memo/IBTC layers must never
            // add events beyond that.
            EXPECT_LE(vm.stats.securityEvents, 4u) << label;
        }
    }
}

TEST(PsrVm, DispatchAccountingInvariantUnderFlushPressure)
{
    // The same reconciliation must hold when capacity flushes destroy
    // chains, RAT memos, and inline caches continuously, and when the
    // run is sliced into quanta (each run() entry dispatches once).
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    FatBinary bin = compileModule(buildWorkload("httpd", wcfg));
    for (IsaKind isa : kAllIsas) {
        const std::string label =
            std::string("httpd-flush/") + isaName(isa);
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.codeCacheBytes = 2048;
        cfg.ratEntries = 8;
        PsrVm vm(bin, isa, mem, os, cfg);
        TransferCounts hooks;
        vm.controlTraceHook = [&](Addr, char kind) {
            switch (kind) {
              case 'B': ++hooks.branches; break;
              case 'C': ++hooks.calls; break;
              case 'I': ++hooks.indirects; break;
              case 'R': ++hooks.returns; break;
              case 'J': ++hooks.redirects; break;
              default: FAIL() << "unknown transfer kind " << kind;
            }
        };
        vm.reset();
        uint64_t run_entries = 0;
        VmRunResult r;
        do {
            r = vm.run(10'000);
            ++run_entries;
        } while (r.reason == VmStop::StepLimit);
        ASSERT_EQ(r.reason, VmStop::Exited) << label;

        expectDispatchAccounting(vm.stats, hooks, run_entries, label);
        EXPECT_GT(vm.stats.cacheFlushes, 2u) << label;
        EXPECT_GT(vm.stats.ratMisses, 0u) << label;
        // Post-flush indirect transfers legitimately miss the cold
        // cache; each miss must be accounted as exactly one
        // suspected-breach event (Section 3.5).
        EXPECT_EQ(vm.stats.securityEvents, vm.stats.codeCacheMisses)
            << label;
    }
}

TEST(PsrVm, TinyRatStillCorrect)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    auto native = test::runNative(bin, IsaKind::Risc);
    PsrConfig cfg;
    cfg.ratEntries = 4;
    auto vm = runUnderVm(bin, IsaKind::Risc, cfg);
    ASSERT_EQ(vm.result.reason, VmStop::Exited);
    EXPECT_EQ(vm.exitCode, native.exitCode);
}

TEST(PsrVm, ReRandomizeChangesCacheContentButNotBehaviour)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);

    vm.reset();
    auto r1 = vm.run(1'000'000);
    ASSERT_EQ(r1.reason, VmStop::Exited);
    uint32_t exit1 = os.exitCode();
    uint64_t gen1 = vm.randomizer().generation();

    os.reset();
    vm.reRandomize();
    vm.reset();
    auto r2 = vm.run(1'000'000);
    ASSERT_EQ(r2.reason, VmStop::Exited);
    EXPECT_EQ(os.exitCode(), exit1);
    EXPECT_EQ(vm.randomizer().generation(), gen1 + 1);
}

TEST(PsrVm, RelocationMapsRandomizeAcrossSeeds)
{
    IrModule m = smallProgram();
    FatBinary bin = compileModule(m);
    Memory mem;
    loadFatBinary(bin, mem);
    PsrConfig a;
    a.seed = 1;
    PsrConfig b2;
    b2.seed = 2;
    GuestOs os;
    PsrVm vm_a(bin, IsaKind::Cisc, mem, os, a);
    PsrVm vm_b(bin, IsaKind::Cisc, mem, os, b2);
    const RelocationMap &ma = vm_a.randomizer().mapFor(0);
    const RelocationMap &mb = vm_b.randomizer().mapFor(0);
    // With 8 KB of randomization space, identical slot maps across
    // seeds would be astronomically unlikely.
    EXPECT_NE(ma.slotMap, mb.slotMap);
    EXPECT_GT(ma.randomizableParams, 0u);
    EXPECT_GT(ma.entropyBits, 13.0);
}

bool
jitHostOk()
{
    const char *reason = nullptr;
    return jit::TraceJit::hostSupported(&reason);
}

/**
 * Superblock-trace invalidation: every flush flavour must retire all
 * live traces before a stale block pointer can be re-followed, and
 * execution after the flush must stay byte-for-byte correct. Traces
 * form only with the JIT on, so these skip where it cannot run.
 */
TEST(PsrVm, TraceInvalidationOnFlushTranslations)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    FatBinary bin = compileModule(buildWorkload("hmmer"));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.jitMode = PsrConfig::JitMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();

    // Warm long enough for the hot loop to cross the formation
    // threshold and run through traces.
    auto warm = vm.run(100'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);
    ASSERT_TRUE(vm.jitEnabled());
    ASSERT_GT(vm.traceStats().formed, 0u);
    ASSERT_GT(vm.liveTraces(), 0u);
    ASSERT_GT(vm.stats.traceFollows, 0u);

    // A fault-injected translator flush mid-run: every live trace is
    // retired with the code cache that owns its blocks.
    const uint64_t invalidated_before = vm.traceStats().invalidated;
    const uint64_t live_before = vm.liveTraces();
    vm.flushTranslations();
    EXPECT_EQ(vm.liveTraces(), 0u);
    EXPECT_EQ(vm.traceStats().invalidated,
              invalidated_before + live_before);

    // Execution continues correctly (retranslating and reforming).
    auto r = vm.run(400'000'000);
    EXPECT_EQ(r.reason, VmStop::Exited);
    auto plain = runUnderVm(bin, IsaKind::Cisc, cfg);
    ASSERT_EQ(plain.result.reason, VmStop::Exited);
    EXPECT_EQ(os.exitCode(), plain.exitCode);
    EXPECT_EQ(os.outputChecksum(), plain.outputChecksum);
}

TEST(PsrVm, TraceInvalidationOnReRandomize)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    FatBinary bin = compileModule(buildWorkload("hmmer"));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.jitMode = PsrConfig::JitMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto warm = vm.run(100'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);
    ASSERT_GT(vm.liveTraces(), 0u);

    // Respawn re-randomization (Section 5.3) drops every trace along
    // with the translations they splice.
    vm.reRandomize();
    EXPECT_EQ(vm.liveTraces(), 0u);

    // The old architectural state is not expected to survive a
    // re-randomization mid-function (relocation maps changed), so
    // restart from the entry point and check end-to-end behaviour.
    os.reset();
    vm.reset();
    auto r = vm.run(400'000'000);
    EXPECT_EQ(r.reason, VmStop::Exited);
    auto plain = runUnderVm(bin, IsaKind::Cisc, cfg);
    ASSERT_EQ(plain.result.reason, VmStop::Exited);
    EXPECT_EQ(os.exitCode(), plain.exitCode);
    EXPECT_EQ(os.outputChecksum(), plain.outputChecksum);
}

TEST(PsrVm, TraceInvalidationOnCapacityFlush)
{
    // A 1 KiB code cache flushes on nearly every translation, so
    // traces are constantly formed over blocks that are about to
    // disappear — including flushes triggered *by* a trace's own call
    // linkage mid-execution. Behaviour must match the trace-off run
    // exactly on every deterministic observable.
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    for (const std::string &name : { std::string("httpd"),
                                     std::string("mcf") }) {
        FatBinary bin = compileModule(buildWorkload(name));
        for (IsaKind isa : kAllIsas) {
            PsrConfig cfg;
            cfg.codeCacheBytes = 1024;
            cfg.jitMode = PsrConfig::JitMode::On;
            auto on = runUnderVm(bin, isa, cfg);
            cfg.jitMode = PsrConfig::JitMode::Off;
            auto off = runUnderVm(bin, isa, cfg);
            const std::string label = name + "/" + isaName(isa);
            ASSERT_EQ(on.result.reason, VmStop::Exited) << label;
            ASSERT_EQ(off.result.reason, VmStop::Exited) << label;
            EXPECT_GT(on.stats.cacheFlushes, 0u) << label;
            EXPECT_EQ(on.exitCode, off.exitCode) << label;
            EXPECT_EQ(on.outputChecksum, off.outputChecksum) << label;
            EXPECT_EQ(on.stats.guestInsts, off.stats.guestInsts)
                << label;
            EXPECT_EQ(on.stats.hostInsts, off.stats.hostInsts)
                << label;
            EXPECT_EQ(on.stats.memReads, off.stats.memReads) << label;
            EXPECT_EQ(on.stats.memWrites, off.stats.memWrites)
                << label;
            EXPECT_EQ(on.stats.ratHits, off.stats.ratHits) << label;
            EXPECT_EQ(on.stats.indirectTransfers,
                      off.stats.indirectTransfers)
                << label;
            EXPECT_EQ(on.stats.securityEvents,
                      off.stats.securityEvents)
                << label;
            EXPECT_EQ(on.stats.cacheFlushes, off.stats.cacheFlushes)
                << label;
            // The chainFollows/traceFollows split is the one allowed
            // counter difference: their sum plus dispatches is
            // conserved.
            EXPECT_EQ(on.stats.dispatches + on.stats.chainFollows +
                          on.stats.traceFollows,
                      off.stats.dispatches + off.stats.chainFollows +
                          off.stats.traceFollows)
                << label;
            EXPECT_EQ(off.stats.traceFollows, 0u) << label;
        }
    }
}

TEST(PsrVm, StatsAreInternalllyConsistent)
{
    IrModule m = buildWorkload("lbm");
    FatBinary bin = compileModule(m);
    PsrConfig cfg;
    auto vm = runUnderVm(bin, IsaKind::Cisc, cfg);
    ASSERT_EQ(vm.result.reason, VmStop::Exited);
    EXPECT_GT(vm.stats.translations, 0u);
    EXPECT_GE(vm.stats.hostInsts, vm.stats.guestInsts);
    EXPECT_EQ(vm.stats.securityEvents, vm.stats.codeCacheMisses);
    EXPECT_GT(vm.stats.ratHits + vm.stats.ratMisses, 0u);
    // Legitimate steady-state execution: no security events expected
    // with a generous cache (Section 3.5).
    EXPECT_EQ(vm.stats.securityEvents, 0u);
}

} // namespace
} // namespace hipstr
