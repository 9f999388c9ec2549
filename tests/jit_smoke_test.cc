/**
 * @file
 * Trace-JIT smoke tier (`ctest -L jit_smoke`): the fast canaries for
 * the direct x86-64 emission engine. Covers the steady-state shape
 * the fig9 measurement depends on (hot execution actually runs in
 * compiled code, with zero bailouts), counter equivalence with side
 * exits against the plain block loop, compile declines (the declined
 * head falls back to the block loop for good), the tiny-arena
 * eviction storm (generational reclaim plus lazy recompilation), byte
 * moves (the httpd request parser, a byte-store fault, and the byte
 * store encoding from every allocatable host register), the W^X
 * executable-arena round trip with its page-local installs, the
 * arena rewind after a respawn, and a serving run during which no
 * mapping is ever writable and executable at once (read from
 * /proc/self/maps). On hosts where the JIT cannot
 * run at all (non-x86-64, sanitizer builds) the execution tests skip
 * — the differential suite still covers the block loop there.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "ir/builder.hh"
#include "isa/guest_os.hh"
#include "server/protected_server.hh"
#include "test_util.hh"
#include "vm/jit/arena.hh"
#include "vm/jit/emitter.hh"
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

/** Final counters and guest outcome of one run. */
struct SmokeRun
{
    uint64_t guestInsts = 0;
    uint64_t hostInsts = 0;
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t securityEvents = 0;
    /** dispatches + chainFollows + traceFollows (conserved). */
    uint64_t transfers = 0;
    uint64_t traceFollows = 0;
    jit::JitStats jit;
    uint64_t arenaGeneration = 0;
    size_t arenaUsed = 0;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t dataChecksum = 0;
};

SmokeRun
harvest(const PsrVm &vm, const GuestOs &os, const Memory &mem)
{
    SmokeRun out;
    out.guestInsts = vm.stats.guestInsts;
    out.hostInsts = vm.stats.hostInsts;
    out.memReads = vm.stats.memReads;
    out.memWrites = vm.stats.memWrites;
    out.securityEvents = vm.stats.securityEvents;
    out.transfers = vm.stats.dispatches + vm.stats.chainFollows +
        vm.stats.traceFollows;
    out.traceFollows = vm.stats.traceFollows;
    out.jit = vm.jitStats();
    out.arenaGeneration = vm.jitEngine().arenaGeneration();
    out.arenaUsed = vm.jitEngine().arenaUsed();
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.dataChecksum = test::dataChecksum(mem);
    return out;
}

/** Every deterministic counter and guest outcome must agree. */
void
expectSameExecution(const SmokeRun &a, const SmokeRun &b,
                    const std::string &label = "")
{
    EXPECT_EQ(a.exitCode, b.exitCode) << label;
    EXPECT_EQ(a.outputChecksum, b.outputChecksum) << label;
    EXPECT_EQ(a.dataChecksum, b.dataChecksum) << label;
    EXPECT_EQ(a.guestInsts, b.guestInsts) << label;
    EXPECT_EQ(a.hostInsts, b.hostInsts) << label;
    EXPECT_EQ(a.memReads, b.memReads) << label;
    EXPECT_EQ(a.memWrites, b.memWrites) << label;
    EXPECT_EQ(a.securityEvents, b.securityEvents) << label;
    EXPECT_EQ(a.transfers, b.transfers) << label;
}

SmokeRun
steadyRun(PsrConfig::JitMode mode, size_t arena_bytes,
          uint64_t budget)
{
    FatBinary bin = compileModule(buildHmmer(WorkloadConfig{}));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 11;
    cfg.jitMode = mode;
    if (arena_bytes != 0)
        cfg.jitArenaBytes = arena_bytes;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    (void)vm.run(50'000); // warm the code cache and form traces
    uint64_t executed = 0;
    while (executed < budget) {
        uint64_t before = vm.stats.guestInsts;
        VmRunResult r = vm.run(100'000);
        executed += vm.stats.guestInsts - before;
        if (r.reason != VmStop::StepLimit) {
            os.reset();
            vm.reset();
        }
    }
    return harvest(vm, os, mem);
}

/** One complete run of @p bin on @p isa, from entry to exit. */
SmokeRun
completeRun(const FatBinary &bin, IsaKind isa, PsrConfig::JitMode mode,
            size_t arena_bytes, const std::string &label)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 11;
    cfg.jitMode = mode;
    cfg.jitArenaBytes = arena_bytes;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r = vm.run(400'000'000);
    EXPECT_EQ(r.reason, VmStop::Exited) << label;
    return harvest(vm, os, mem);
}

TEST(JitSmoke, SteadyStateIsJitDominated)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    SmokeRun r = steadyRun(PsrConfig::JitMode::On, 0, 2'000'000);
    // The hot loop must compile and then actually execute compiled
    // code — and never fall back: every per-entry gate is off in
    // this configuration, so a bailout means compileTrace declined
    // a handler the steady-state workload uses.
    EXPECT_GT(r.jit.compiledTraces, 0u);
    EXPECT_GT(r.jit.codeBytes, 0u);
    EXPECT_GT(r.jit.executions, 100u);
    EXPECT_EQ(r.jit.bailouts, 0u);
    // Compiled entries dominate trace execution: the follows counter
    // (segment boundaries crossed inside traces) must dwarf the
    // entry count, i.e. entries run many segments in JIT code.
    EXPECT_GT(r.traceFollows, r.jit.executions);
}

TEST(JitSmoke, SideExitsMatchBlockLoop)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    SmokeRun off = steadyRun(PsrConfig::JitMode::Off, 0, 2'000'000);
    SmokeRun on = steadyRun(PsrConfig::JitMode::On, 0, 2'000'000);
    // Identical workload, seed, and budget: every side exit resumes
    // the block loop at the guarded instruction, so compiled traces
    // must retire exactly what the plain block loop retires.
    expectSameExecution(on, off);
    // Side exits actually fired (at most one per entry), and the Off
    // run never formed or entered a trace.
    EXPECT_GT(on.jit.sideExits, 0u);
    EXPECT_LE(on.jit.sideExits, on.jit.executions);
    EXPECT_EQ(off.jit.executions, 0u);
    EXPECT_EQ(off.traceFollows, 0u);
}

TEST(JitSmoke, DeclinedTracesRunInTheBlockLoop)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // A one-page arena cannot hold a trace body larger than a page,
    // so the JIT declines those traces: each declined head must fall
    // back to the block loop for good while smaller traces keep
    // compiling, and the run must retire exactly what a JitMode::Off
    // run retires.
    FatBinary bin = compileModule(buildWorkload("sphinx3"));
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        SmokeRun off =
            completeRun(bin, isa, PsrConfig::JitMode::Off, 4096, label);
        SmokeRun on =
            completeRun(bin, isa, PsrConfig::JitMode::On, 4096, label);
        expectSameExecution(on, off, label);
        EXPECT_GT(on.jit.bailouts, 0u)
            << label << ": no trace body outgrew the arena";
        EXPECT_GT(on.jit.executions, 0u) << label;
        EXPECT_EQ(off.jit.bailouts, 0u) << label;
    }
}

TEST(JitSmoke, TinyArenaEvictionStorm)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // An arena smaller than the workload's compiled footprint forces
    // generational reclaim: every reset strands all compiled traces
    // and they recompile lazily on their next entry. The run must
    // stay correct and keep executing compiled code throughout. The
    // arena still holds the largest single trace body, so nothing is
    // declined and trace coverage matches the big-arena run.
    constexpr size_t kTinyArena = 32 * 1024;
    SmokeRun big = steadyRun(PsrConfig::JitMode::On, 0, 1'000'000);
    SmokeRun tiny =
        steadyRun(PsrConfig::JitMode::On, kTinyArena, 1'000'000);
    EXPECT_GT(tiny.arenaGeneration, big.arenaGeneration);
    EXPECT_GT(tiny.jit.compiledTraces, big.jit.compiledTraces)
        << "eviction must force recompilation";
    EXPECT_GT(tiny.jit.executions, 0u);
    EXPECT_EQ(tiny.jit.bailouts, 0u);
    EXPECT_LE(tiny.arenaUsed, kTinyArena);
    EXPECT_EQ(tiny.guestInsts, big.guestInsts);
    EXPECT_EQ(tiny.traceFollows, big.traceFollows);
    EXPECT_EQ(tiny.outputChecksum, big.outputChecksum);
}

TEST(JitSmoke, ByteMovesMatchBlockLoop)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // httpd's request parser is the byte-move-heavy code: compiled
    // byte loads and stores must retire exactly what the block loop
    // retires, and no trace may be declined for using one.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    const size_t arena = PsrConfig{}.jitArenaBytes;
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        SmokeRun off =
            completeRun(bin, isa, PsrConfig::JitMode::Off, arena, label);
        SmokeRun on =
            completeRun(bin, isa, PsrConfig::JitMode::On, arena, label);
        expectSameExecution(on, off, label);
        EXPECT_EQ(on.jit.bailouts, 0u) << label;
        EXPECT_GT(on.jit.executions, 0u) << label;
    }
}

/** A loop that stores and reloads bytes of the 256-byte global "buf". */
IrModule
byteFillModule()
{
    IrModule m;
    m.name = "bytefill";
    IrBuilder b(m);
    uint32_t buf = b.addGlobal("buf", 256);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);
    b.beginFunction(main_fn);
    ValueId base = b.globalAddr(buf);
    ValueId i = b.constI(0);
    ValueId acc = b.constI(0);
    uint32_t loop = b.newBlock(), body = b.newBlock(),
             done = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.condBrI(Cond::Lt, i, 1 << 24, body, done);
    b.setBlock(body);
    b.store8(b.add(base, b.andI(i, 255)), b.mulI(i, 7));
    b.assignBinop(IrOp::Add, acc, acc,
                  b.load8(b.add(base, b.andI(b.addI(i, 1), 255))));
    b.assignBinopI(IrOp::Add, i, i, 1);
    b.br(loop);
    b.setBlock(done);
    b.ret(acc);
    b.endFunction();
    return m;
}

TEST(JitSmoke, ByteStoreFaultMatchesBlockLoop)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // Warm a trace whose byte stores fill a buffer, revoke the
    // buffer's write permission, and resume: the compiled byte store
    // must miss its hint, fail the probe, and stop with the same
    // reason, pc, architectural state, and counters as the block loop.
    FatBinary bin = compileModule(byteFillModule());
    const Addr buf = bin.globalAddr.at(0);
    struct Outcome
    {
        VmRunResult stop;
        MachineState state;
        SmokeRun run;
    };
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        auto faultRun = [&](PsrConfig::JitMode mode) {
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = 11;
            cfg.jitMode = mode;
            PsrVm vm(bin, isa, mem, os, cfg);
            vm.reset();
            EXPECT_EQ(vm.run(200'000).reason, VmStop::StepLimit)
                << label;
            mem.setRegion(buf, 256, PermR, "frozen-buf");
            Outcome o;
            o.stop = vm.run(1'000'000);
            o.state = vm.state;
            o.run = harvest(vm, os, mem);
            return o;
        };
        Outcome off = faultRun(PsrConfig::JitMode::Off);
        Outcome on = faultRun(PsrConfig::JitMode::On);
        EXPECT_EQ(off.stop.reason, VmStop::Fault) << label;
        EXPECT_EQ(on.stop.reason, off.stop.reason) << label;
        EXPECT_EQ(on.stop.stopPc, off.stop.stopPc) << label;
        EXPECT_EQ(on.state.pc, off.state.pc) << label;
        EXPECT_EQ(on.state.regs, off.state.regs) << label;
        EXPECT_EQ(on.state.flags, off.state.flags) << label;
        expectSameExecution(on.run, off.run, label);
        EXPECT_GT(on.run.jit.executions, 0u) << label;
        EXPECT_EQ(on.run.jit.bailouts, 0u) << label;
    }
}

/**
 * A store loop over the 4-page global "buf". @p straddle selects the
 * shape: false sweeps byte stores over the 8 KiB from buf + 4096;
 * true repeats a 4-byte store 2 bytes below the page boundary that
 * follows the page of buf + 4096, so each store spans two pages.
 */
IrModule
pageStoreModule(bool straddle)
{
    IrModule m;
    m.name = straddle ? "straddle" : "pagesweep";
    IrBuilder b(m);
    uint32_t buf = b.addGlobal("buf", 4 * Memory::kPageBytes);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);
    b.beginFunction(main_fn);
    ValueId base = b.globalAddr(buf);
    ValueId i = b.constI(0);
    ValueId acc = b.constI(0);
    uint32_t loop = b.newBlock(), body = b.newBlock(),
             done = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.condBrI(Cond::Lt, i, 1 << 24, body, done);
    b.setBlock(body);
    if (straddle) {
        ValueId edge = b.andI(b.addI(base, 2 * Memory::kPageBytes),
                              -int32_t(Memory::kPageBytes));
        b.store(edge, b.orI(i, 0x01010101), -2);
        b.assignBinop(IrOp::Add, acc, acc, b.load(edge, -2));
    } else {
        ValueId at = b.add(b.addI(base, Memory::kPageBytes),
                           b.andI(i, 2 * Memory::kPageBytes - 1));
        b.store8(at, b.orI(b.mulI(i, 7), 1));
        b.assignBinop(IrOp::Add, acc, acc, b.load8(at));
    }
    b.assignBinopI(IrOp::Add, i, i, 1);
    b.br(loop);
    b.setBlock(done);
    b.ret(acc);
    b.endFunction();
    return m;
}

TEST(JitSmoke, CompiledStoresMarkCleanedPages)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // Compiled stores bypass the checked write paths, so only their
    // hint probes mark pages dirty. Warm a trace, clean the pages it
    // stores to, re-enter it, and require every page it wrote to be
    // marked again — for a sweep across pages (write windows must be
    // page-bounded) and for a store straddling a page edge (both
    // pages marked). A stale window that outlived the cleaning would
    // store without a mark.
    for (bool straddle : { false, true }) {
        FatBinary bin = compileModule(pageStoreModule(straddle));
        const Addr buf = bin.globalAddr.at(0);
        constexpr Addr kPage = Memory::kPageBytes;
        const Addr lo = (buf + kPage) & ~(kPage - 1);
        const Addr hi = lo + (straddle ? 2 : 3) * kPage;
        for (IsaKind isa : kAllIsas) {
            const std::string label = std::string(isaName(isa)) +
                (straddle ? "/straddle" : "/sweep");
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = 11;
            cfg.jitMode = PsrConfig::JitMode::On;
            PsrVm vm(bin, isa, mem, os, cfg);
            vm.reset();
            ASSERT_EQ(vm.run(400'000).reason, VmStop::StepLimit)
                << label;
            const uint64_t compiled = vm.jitStats().compiledTraces;
            const uint64_t entries = vm.jitStats().executions;
            ASSERT_GT(compiled, 0u) << label;

            const uint64_t epoch = mem.layoutEpoch();
            mem.zeroRange(lo, hi - lo);
            EXPECT_NE(mem.layoutEpoch(), epoch) << label;
            for (Addr a = lo; a < hi; a += kPage)
                ASSERT_FALSE(mem.pageDirty(a)) << label;

            ASSERT_EQ(vm.run(400'000).reason, VmStop::StepLimit)
                << label;
            // The stores after the cleaning ran in the warm trace.
            EXPECT_EQ(vm.jitStats().compiledTraces, compiled) << label;
            EXPECT_GT(vm.jitStats().executions, entries) << label;
            EXPECT_EQ(test::firstNonZeroCleanPage(mem), -1) << label;
            const Addr first = straddle ? lo + kPage - 2 : lo;
            const Addr last = straddle ? lo + kPage + 1 : lo + 2 * kPage - 1;
            for (Addr a = first & ~(kPage - 1); a <= last; a += kPage)
                EXPECT_TRUE(mem.pageDirty(a)) << label << std::hex
                                              << " page 0x" << a;

            mem.zeroRange(lo, hi - lo);
            for (Addr a = lo; a < hi; ++a)
                ASSERT_EQ(mem.rawRead8(a), 0u) << label;
            EXPECT_EQ(test::firstNonZeroCleanPage(mem), -1) << label;
        }
    }
}

TEST(JitSmoke, ByteStoreEncodesEveryAllocatableRegister)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // `mov byte [rax], r8` from rbp/rsi/rdi needs a REX prefix:
    // without one, encodings 5/6/7 name ch/dh/bh and the store writes
    // the wrong byte. Emit `void f(uint8_t *p)` that stores the low
    // byte of 0x1234 from @p src at p[1] (base rax, so nothing else
    // forces a REX), run it, and check exactly that byte landed.
    const uint8_t srcs[] = {jit::RBP, jit::RSI, jit::RDI, jit::R8,
                            jit::R9, jit::R10, jit::R11};
    jit::ExecArena arena;
    ASSERT_TRUE(arena.init(4096));
    jit::Emitter em;
    for (uint8_t src : srcs) {
        em.clear();
        em.pushR(jit::RBP); // the callee-saved registers clobbered
        em.pushR(jit::RBX);
        em.movRR64(jit::RAX, jit::RDI);
        em.movRI32(jit::RDX, 0);  // dh/ch/bh would read 0 ...
        em.movRI32(jit::RCX, 0);
        em.movRI32(jit::RBX, 0);
        em.movRI32(src, 0x1234); // ... the right register holds 0x34
        em.movMR8(jit::Mem(jit::RAX, 1), src);
        em.movMI8(jit::Mem(jit::RAX, 2), 0x56);
        em.popR(jit::RBX);
        em.popR(jit::RBP);
        em.ret();
        em.finalize();
        arena.reset();
        uint8_t *p = arena.alloc(em.size());
        ASSERT_NE(p, nullptr);
        arena.install(p, em.code.data(), em.size());
        uint8_t bytes[4] = {0xee, 0xee, 0xee, 0xee};
        reinterpret_cast<void (*)(uint8_t *)>(p)(bytes);
        EXPECT_EQ(bytes[0], 0xee) << "src " << int(src);
        EXPECT_EQ(bytes[1], 0x34) << "src " << int(src);
        EXPECT_EQ(bytes[2], 0x56) << "src " << int(src);
        EXPECT_EQ(bytes[3], 0xee) << "src " << int(src);
    }
}

/**
 * /proc/self/maps lines of every mapping that is writable and
 * executable at once. Sets @p readable to false where the file does
 * not exist (non-Linux hosts).
 */
std::vector<std::string>
writableExecutableMappings(bool &readable)
{
    std::ifstream maps("/proc/self/maps");
    readable = maps.is_open();
    std::vector<std::string> bad;
    std::string line;
    while (std::getline(maps, line)) {
        // "start-end perms offset dev inode [path]", perms "rwxp".
        std::istringstream fields(line);
        std::string range, perms;
        fields >> range >> perms;
        if (perms.size() >= 3 && perms[1] == 'w' && perms[2] == 'x')
            bad.push_back(line);
    }
    return bad;
}

/** Fail with the offending lines if any mapping is both w and x. */
void
expectNoWritableExecutableMapping(const std::string &when)
{
    bool readable = false;
    std::vector<std::string> bad = writableExecutableMappings(readable);
    EXPECT_TRUE(readable) << "cannot read /proc/self/maps " << when;
    for (const std::string &line : bad)
        ADD_FAILURE() << "W+X mapping " << when << ": " << line;
}

/** Emit `int f() { return v; }`. */
void
emitReturn(jit::Emitter &em, uint32_t v)
{
    em.clear();
    em.movRI32(jit::RAX, v);
    em.ret();
    em.finalize();
}

TEST(JitSmoke, ExecArenaWxRoundTrip)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    jit::ExecArena arena;
    ASSERT_TRUE(arena.init(3 * 4096));
    EXPECT_TRUE(arena.valid());
    EXPECT_EQ(arena.used(), 0u);
    const uint64_t gen0 = arena.generation();

    // Install `mov eax, 42; ret` and call it out of the executable
    // mapping.
    jit::Emitter em;
    emitReturn(em, 42);
    uint8_t *p = arena.alloc(em.size());
    ASSERT_NE(p, nullptr);
    arena.install(p, em.code.data(), em.size());
    EXPECT_GE(arena.used(), em.size());
    EXPECT_EQ(reinterpret_cast<int (*)()>(p)(), 42);
    expectNoWritableExecutableMapping("after the first install");

    // Allocation stays dense: the next body lands 16-byte aligned
    // right after the first, and installing it flips the page the
    // first body shares without disturbing it.
    emitReturn(em, 7);
    uint8_t *q = arena.alloc(em.size());
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q, p + ((em.size() + 15) & ~size_t(15)));
    arena.install(q, em.code.data(), em.size());
    EXPECT_EQ(reinterpret_cast<int (*)()>(q)(), 7);
    EXPECT_EQ(reinterpret_cast<int (*)()>(p)(), 42);

    // A body straddling a page boundary flips both pages it covers.
    const size_t next = (arena.used() + 15) & ~size_t(15);
    ASSERT_NE(arena.alloc(4096 - next % 4096 - 16), nullptr);
    jit::Emitter wide;
    for (int i = 0; i < 8; ++i)
        wide.movRI32(jit::RCX, 0); // 40 bytes of filler
    wide.movRI32(jit::RAX, 99);
    wide.ret();
    wide.finalize();
    uint8_t *w = arena.alloc(wide.size());
    ASSERT_NE(w, nullptr);
    ASSERT_NE(reinterpret_cast<uintptr_t>(w) / 4096,
              reinterpret_cast<uintptr_t>(w + wide.size() - 1) / 4096);
    arena.install(w, wide.code.data(), wide.size());
    EXPECT_EQ(reinterpret_cast<int (*)()>(w)(), 99);
    EXPECT_EQ(reinterpret_cast<int (*)()>(p)(), 42);
    expectNoWritableExecutableMapping("after a page-straddling install");

    // Generational reclaim bumps the stamp and empties the bump
    // pointer; the next allocation reuses the base of the mapping.
    arena.reset();
    EXPECT_EQ(arena.generation(), gen0 + 1);
    EXPECT_EQ(arena.used(), 0u);
    emitReturn(em, 42);
    uint8_t *r = arena.alloc(em.size());
    EXPECT_EQ(r, p);
    arena.install(r, em.code.data(), em.size());
    EXPECT_EQ(reinterpret_cast<int (*)()>(r)(), 42);
    expectNoWritableExecutableMapping("after a rewind");
}

TEST(JitSmoke, RespawnRewindsTheArena)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // Re-randomization retires every trace, so the compile after it
    // starts over at the arena's base: the arena then holds exactly
    // the bodies compiled since, under a new generation.
    FatBinary bin = compileModule(buildHmmer(WorkloadConfig{}));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 11;
    cfg.jitMode = PsrConfig::JitMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    (void)vm.run(500'000);
    const jit::TraceJit &eng = vm.jitEngine();
    ASSERT_GT(vm.jitStats().compiledTraces, 1u);
    ASSERT_GT(eng.arenaUsed(), 0u);
    const uint64_t gen0 = eng.arenaGeneration();

    vm.reRandomize();
    // Retirement alone moves nothing: the rewind waits for the next
    // compile, the first safe point.
    EXPECT_EQ(eng.arenaGeneration(), gen0);
    const jit::JitStats before = vm.jitStats();
    for (int i = 0; i < 100'000 &&
                    vm.jitStats().compiledTraces == before.compiledTraces;
         ++i) {
        VmRunResult r = vm.run(64);
        ASSERT_NE(r.reason, VmStop::Fault);
        if (r.reason != VmStop::StepLimit) {
            os.reset();
            vm.reset();
        }
    }
    const uint64_t compiled =
        vm.jitStats().compiledTraces - before.compiledTraces;
    const uint64_t body = vm.jitStats().codeBytes - before.codeBytes;
    ASSERT_GE(compiled, 1u);
    EXPECT_GT(eng.arenaGeneration(), gen0);
    // One body (and 16-byte alignment padding between any others).
    EXPECT_LE(eng.arenaUsed(), body + 15 * (compiled - 1));
    expectNoWritableExecutableMapping("after a respawn rewind");

    // The respawned VM keeps retiring what the block loop retires.
    VmRunResult r = vm.run(500'000);
    EXPECT_NE(r.reason, VmStop::Fault);
    EXPECT_EQ(vm.jitStats().bailouts, 0u);
}

TEST(JitSmoke, ServingRunKeepsEveryMappingWxStrict)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // A full serving run with crash probes (so workers respawn and
    // their arenas rewind): between scheduler rounds no mapping of
    // the process may be writable and executable at once.
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    FatBinary bin = compileModule(buildWorkload("httpd", wcfg));
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 60;
    cfg.mix.attackFrac = 0.1;
    cfg.mix.malformedFrac = 0.1;
    cfg.hipstr.diversificationProbability = 1.0;
    cfg.hipstr.psr.jitMode = PsrConfig::JitMode::On;
    ProtectedServer server(bin, cfg);
    server.beginRun();
    unsigned rounds = 0;
    while (server.stepRound()) {
        if (++rounds % 8 == 0)
            expectNoWritableExecutableMapping(
                "in round " + std::to_string(rounds));
    }
    ServerReport report = server.finishRun();
    expectNoWritableExecutableMapping("after the serving run");
    EXPECT_EQ(report.requestsServed, 60u);
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_GT(report.respawns, 0u) << "no worker respawned";
    uint64_t compiled = 0;
    for (const auto &w : server.workers()) {
        for (IsaKind isa : kAllIsas)
            compiled += w->runtime().vm(isa).jitStats().compiledTraces;
    }
    EXPECT_GT(compiled, 0u) << "the serving run compiled no trace";
}

} // namespace
} // namespace hipstr
