/**
 * @file
 * Tests for the heterogeneous-CMP server subsystem: process
 * lifecycle, scheduler fairness and ISA-affinity routing, Section 5.3
 * respawn re-randomization, resumable-runtime equivalence, and the
 * whole-server determinism contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "server/protected_server.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::test;

namespace
{

const FatBinary &
httpdBin()
{
    static const FatBinary bin = [] {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        return compileModule(buildWorkload("httpd", wcfg));
    }();
    return bin;
}

GuestProcessConfig
procConfig(uint32_t pid = 0)
{
    GuestProcessConfig cfg;
    cfg.pid = pid;
    cfg.hipstr.diversificationProbability = 1.0;
    return cfg;
}

} // namespace

// A staged attack probe raises a security event on its first quantum,
// the policy fires, the migration succeeds, and the process comes out
// Ready with the opposite ISA affinity — the scheduler's cue to
// requeue it on the other core type.
TEST(GuestProcess, SecurityMigrationFlipsIsaAffinity)
{
    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(httpdBin(), cfg);

    const IsaKind before = proc.isa();
    proc.beginService(1'000'000);
    ASSERT_TRUE(proc.injectAttackProbe(3));
    QuantumResult q = proc.runQuantum(50'000);

    ASSERT_TRUE(q.migrated);
    EXPECT_EQ(q.reason, VmStop::MigrationRequested);
    EXPECT_NE(proc.isa(), before);
    EXPECT_EQ(proc.state(), ProcState::Ready);
    EXPECT_TRUE(proc.lastQuantumMigrated());
    EXPECT_EQ(proc.stats().migrations, 1u);
}

// Scheduler integration of the same scenario: after the security
// migration the process is requeued onto the other ISA's core and
// keeps executing there — both ISAs accumulate guest instructions and
// the requeue is counted as a routed migration.
TEST(CmpScheduler, RoutesMigratedProcessToOtherIsaCore)
{
    CmpConfig mc;
    mc.riscCores = 1;
    mc.ciscCores = 1;
    CmpModel cmp(mc);
    CmpScheduler sched(cmp, SchedulerConfig{});

    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(httpdBin(), cfg);

    proc.beginService(400'000);
    ASSERT_TRUE(proc.injectAttackProbe(3));
    sched.notifyReady(&proc);
    for (unsigned i = 0; i < 100 && !sched.idle(); ++i)
        sched.round();

    EXPECT_EQ(proc.state(), ProcState::Blocked);
    EXPECT_GE(sched.stats().migrationsRouted, 1u);
    GuestProcessStats s = proc.stats();
    EXPECT_GT(s.guestInstsPerIsa[0], 0u);
    EXPECT_GT(s.guestInstsPerIsa[1], 0u);
    EXPECT_EQ(uint32_t(sched.stats().migrationsRouted),
              s.migrations);
}

// Round-robin fairness: two processes sharing each single core of
// their ISA must alternate exactly — after 2N rounds every process
// has run N quanta.
TEST(CmpScheduler, QuantumFairness)
{
    CmpConfig mc;
    mc.riscCores = 1;
    mc.ciscCores = 1;
    CmpModel cmp(mc);
    CmpScheduler sched(cmp, SchedulerConfig{});

    std::vector<std::unique_ptr<GuestProcess>> procs;
    for (uint32_t pid = 0; pid < 4; ++pid) {
        procs.push_back(std::make_unique<GuestProcess>(
            httpdBin(), procConfig(pid)));
        procs.back()->beginService(uint64_t(1) << 62);
        sched.notifyReady(procs.back().get());
    }

    const unsigned rounds = 20;
    for (unsigned i = 0; i < rounds; ++i)
        sched.round();

    for (const auto &p : procs) {
        EXPECT_EQ(p->stats().quanta, rounds / 2)
            << "pid " << p->pid();
    }
    EXPECT_EQ(sched.stats().quantaRun, uint64_t(rounds) * 2);
    EXPECT_EQ(sched.stats().idleCoreQuanta, 0u);
}

// Section 5.3: a crash respawn advances the randomizer generation on
// both ISAs and yields different relocation maps, while the respawned
// program still produces byte-identical output (verified against the
// reference-interpreter checksum).
TEST(GuestProcess, RespawnReRandomizesButPreservesOutput)
{
    const FatBinary &bin = httpdBin();
    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(bin, cfg);
    proc.setExpectedChecksum(
        runNative(bin, IsaKind::Cisc).outputChecksum);

    proc.beginService(2'000'000);
    ASSERT_TRUE(proc.injectCorruption(5));
    QuantumResult q = proc.runQuantum(50'000);
    ASSERT_EQ(q.reason, VmStop::SfiViolation);
    ASSERT_EQ(proc.state(), ProcState::Crashed);

    // Snapshot the pre-respawn relocation decisions.
    const IsaKind isa = proc.isa();
    struct MapSnap
    {
        std::array<Reg, 16> regMap;
        std::map<uint32_t, uint32_t> slots;
        uint32_t newFrameSize;
    };
    std::map<uint32_t, MapSnap> before;
    for (const FuncInfo &fi : bin.funcsFor(isa)) {
        const RelocationMap &m =
            proc.runtime().vm(isa).randomizer().mapFor(fi.funcId);
        before[fi.funcId] = MapSnap{
            m.regMap,
            { m.slotMap.begin(), m.slotMap.end() },
            m.newFrameSize,
        };
    }
    for (IsaKind k : kAllIsas) {
        EXPECT_EQ(proc.runtime().vm(k).randomizer().generation(),
                  0u);
    }

    proc.respawn();
    EXPECT_EQ(proc.respawnCount(), 1u);
    EXPECT_EQ(proc.state(), ProcState::Ready);
    for (IsaKind k : kAllIsas) {
        EXPECT_EQ(proc.runtime().vm(k).randomizer().generation(),
                  1u);
    }

    // Fresh generation, fresh maps: at least one function must have
    // moved slots, permuted registers, or resized its frame.
    bool changed = false;
    for (const FuncInfo &fi : bin.funcsFor(isa)) {
        const RelocationMap &m =
            proc.runtime().vm(isa).randomizer().mapFor(fi.funcId);
        const MapSnap &s = before.at(fi.funcId);
        if (m.regMap != s.regMap || m.newFrameSize != s.newFrameSize ||
            std::map<uint32_t, uint32_t>(m.slotMap.begin(),
                                         m.slotMap.end()) != s.slots) {
            changed = true;
            break;
        }
    }
    EXPECT_TRUE(changed);

    // The respawned worker keeps serving and its (re-randomized)
    // program runs still produce the reference output.
    while (proc.state() == ProcState::Ready)
        proc.runQuantum(20'000);
    EXPECT_EQ(proc.state(), ProcState::Blocked);
    GuestProcessStats s = proc.stats();
    EXPECT_GE(s.programsCompleted, 1u);
    EXPECT_EQ(s.checksumMismatches, 0u);
}

// A respawn wipes only the pages the crashed generation dirtied. The
// mutable image it leaves behind must still equal a freshly
// constructed process's, byte for byte, and keep the dirty-page
// invariant.
TEST(GuestProcess, RespawnImageEqualsFreshProcess)
{
    const FatBinary &bin = httpdBin();
    GuestProcessConfig cfg = procConfig();
    GuestProcess proc(bin, cfg);
    proc.beginService(400'000);
    for (int i = 0; i < 8 && proc.state() == ProcState::Ready; ++i)
        proc.runQuantum(20'000);
    if (proc.state() == ProcState::Blocked)
        proc.beginService(400'000);
    ASSERT_EQ(proc.state(), ProcState::Ready);
    ASSERT_TRUE(proc.injectCorruption(3));
    proc.runQuantum(50'000);
    ASSERT_EQ(proc.state(), ProcState::Crashed);

    GuestProcess fresh(bin, cfg);
    const Memory &a = proc.mem();
    const Memory &b = fresh.mem();
    constexpr Addr lo = layout::kDataBase, hi = layout::kStackTop;
    ASSERT_NE(std::memcmp(a.data() + lo, b.data() + lo, hi - lo), 0);
    proc.respawn();
    EXPECT_EQ(std::memcmp(a.data() + lo, b.data() + lo, hi - lo), 0);
    EXPECT_EQ(firstNonZeroCleanPage(a), -1);
}

// Checkpoints skip pages the dirty map reports clean. On a server
// whose workers crashed and respawned, each worker's saveState page
// stream must equal one built by scanning every page of its image.
TEST(GuestProcess, CheckpointPagesMatchFullScan)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 80;
    cfg.mix.attackFrac = 0.3;
    cfg.hipstr.diversificationProbability = 1.0;
    ProtectedServer server(httpdBin(), cfg);
    server.beginRun();
    uint32_t respawns = 0;
    for (int round = 0; round < 400 && respawns < 4; ++round) {
        ASSERT_TRUE(server.stepRound());
        respawns = 0;
        for (const auto &w : server.workers())
            respawns += w->respawnCount();
    }
    ASSERT_GE(respawns, 4u);

    for (const auto &w : server.workers()) {
        ByteWriter saved;
        w->saveState(saved);
        // The reference stream: every non-zero page of the mutable
        // image, in address order, then the terminator.
        ByteWriter ref;
        const uint8_t *bytes = w->mem().data();
        for (Addr page = layout::kDataBase; page < layout::kStackTop;
             page += Memory::kPageBytes) {
            const uint8_t *p = bytes + page;
            if (std::all_of(p, p + Memory::kPageBytes,
                            [](uint8_t v) { return v == 0; }))
                continue;
            ref.u32(page);
            ref.bytes(p, Memory::kPageBytes);
        }
        ref.u32(0xffffffffu);
        const std::vector<uint8_t> &s = saved.data();
        const std::vector<uint8_t> &r = ref.data();
        ASSERT_GT(s.size(), r.size());
        EXPECT_TRUE(std::equal(r.begin(), r.end(), s.end() - r.size()))
            << "pid " << w->pid();
    }
}

// Resumable-runtime contract: slicing a run into quanta must be
// observationally identical to one uninterrupted run — same
// instruction count, same stop reason, same output checksum.
TEST(HipstrRuntime, RunQuantumEquivalentToSingleRun)
{
    const FatBinary &bin = httpdBin();
    HipstrConfig cfg;
    cfg.diversificationProbability = 1.0;
    cfg.phaseIntervalInsts = 0;

    Memory memA;
    loadFatBinary(bin, memA);
    GuestOs osA;
    HipstrRuntime rtA(bin, memA, osA, cfg);
    rtA.reset();
    HipstrRunSummary whole = rtA.run(100'000'000);
    ASSERT_EQ(whole.reason, VmStop::Exited);

    Memory memB;
    loadFatBinary(bin, memB);
    GuestOs osB;
    HipstrRuntime rtB(bin, memB, osB, cfg);
    rtB.reset();
    QuantumResult last;
    unsigned slices = 0;
    while (!rtB.finished()) {
        last = rtB.runQuantum(7'777);
        ++slices;
        ASSERT_LT(slices, 100'000u);
    }

    EXPECT_GT(slices, 1u);
    EXPECT_EQ(last.reason, whole.reason);
    EXPECT_EQ(rtB.summary().totalGuestInsts, whole.totalGuestInsts);
    for (size_t i = 0; i < kNumIsas; ++i) {
        EXPECT_EQ(rtB.summary().guestInstsPerIsa[i],
                  whole.guestInstsPerIsa[i]);
    }
    EXPECT_EQ(rtB.summary().migrationsDenied,
              whole.migrationsDenied);
    EXPECT_EQ(osB.outputChecksum(), osA.outputChecksum());
    EXPECT_EQ(osB.exitCode(), osA.exitCode());
}

// Misuse guard: resuming a terminally stopped runtime without reset()
// (or the explicit rearm() escape hatch) must trip the assertion.
TEST(HipstrRuntimeDeathTest, RunAfterTerminalStopAsserts)
{
    const FatBinary &bin = httpdBin();
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    HipstrRuntime rt(bin, mem, os, HipstrConfig{});
    rt.reset();
    HipstrRunSummary s = rt.run(100'000'000);
    ASSERT_EQ(s.reason, VmStop::Exited);
    EXPECT_TRUE(rt.finished());
    EXPECT_DEATH((void)rt.run(1'000), "terminal stop");
}

// Whole-server determinism: the report signature is a pure function
// of the configuration — identical whether the quanta run serially or
// on eight host threads.
TEST(ProtectedServer, DeterministicAcrossHostThreadCounts)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 80;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 1.0;

    ThreadPool::setGlobalThreads(0); // serial
    ProtectedServer serial(httpdBin(), cfg);
    ServerReport r1 = serial.run();

    ThreadPool::setGlobalThreads(7); // 8-way
    ProtectedServer threaded(httpdBin(), cfg);
    ServerReport r2 = threaded.run();
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(r1.requestsServed, cfg.requestCount);
    EXPECT_EQ(r1.signature, r2.signature);
    EXPECT_EQ(r1.rounds, r2.rounds);
    EXPECT_EQ(r1.migrations, r2.migrations);
    EXPECT_EQ(r1.crashes, r2.crashes);
    EXPECT_EQ(r1.respawns, r2.respawns);
    EXPECT_EQ(r1.totalGuestInsts, r2.totalGuestInsts);
    EXPECT_EQ(r1.latency.p95Rounds, r2.latency.p95Rounds);
}

// Identical configurations must give identical per-process behaviour;
// different pids must not (independent randomization per tenant).
TEST(GuestProcess, SeedingIsPerPidAndReproducible)
{
    GuestProcess a(httpdBin(), procConfig(0));
    GuestProcess b(httpdBin(), procConfig(0));
    GuestProcess c(httpdBin(), procConfig(2)); // same start ISA as 0

    for (GuestProcess *p : { &a, &b, &c }) {
        p->beginService(300'000);
        while (p->state() == ProcState::Ready)
            p->runQuantum(20'000);
    }
    EXPECT_EQ(a.statsSignature(), b.statsSignature());

    const RelocationMap &ma =
        a.runtime().vm(a.isa()).randomizer().mapFor(0);
    const RelocationMap &mc =
        c.runtime().vm(c.isa()).randomizer().mapFor(0);
    const std::map<uint32_t, uint32_t> slotsA(ma.slotMap.begin(),
                                              ma.slotMap.end());
    const std::map<uint32_t, uint32_t> slotsC(mc.slotMap.begin(),
                                              mc.slotMap.end());
    const bool differs = ma.regMap != mc.regMap ||
        ma.newFrameSize != mc.newFrameSize || slotsA != slotsC;
    EXPECT_TRUE(differs);
}

// The retained-output cap keeps long-lived workers flat: the checksum
// still covers the full stream while the buffer never exceeds twice
// the cap (the amortized trim's high-water mark).
TEST(GuestOs, OutputCapBoundsRetainedBytesButNotChecksum)
{
    GuestOs capped;
    capped.setOutputCap(64);
    GuestOs unbounded;
    Memory mem;
    MachineState st;
    st.isa = IsaKind::Cisc;
    const IsaDescriptor &desc = isaDescriptor(st.isa);
    for (uint32_t i = 0; i < 10'000; ++i) {
        st.setReg(desc.retReg,
                  static_cast<uint32_t>(SyscallNo::WriteWord));
        st.setReg(desc.argRegs[1], i * 2654435761u);
        capped.handleSyscall(st, mem);
        st.setReg(desc.retReg,
                  static_cast<uint32_t>(SyscallNo::WriteWord));
        st.setReg(desc.argRegs[1], i * 2654435761u);
        unbounded.handleSyscall(st, mem);
    }
    EXPECT_EQ(capped.outputChecksum(), unbounded.outputChecksum());
    EXPECT_EQ(capped.totalOutputBytes(),
              unbounded.totalOutputBytes());
    EXPECT_LE(capped.output().size(), 128u);
    EXPECT_EQ(unbounded.output().size(), 40'000u);

    std::vector<uint8_t> drained = capped.drainOutput();
    EXPECT_FALSE(drained.empty());
    EXPECT_TRUE(capped.output().empty());
    EXPECT_EQ(capped.outputChecksum(), unbounded.outputChecksum());
}

// Syscall argument validation: a guest-supplied buffer pointer that
// is unmapped (or straddles a region edge) is the guest's bug — the
// kernel answers -1 and keeps the guest running, never raising a
// host-side Memory::Fault or half-completing the operation.
TEST(GuestOs, BadSyscallPointersReturnGuestError)
{
    GuestOs os;
    Memory mem;
    mem.setRegion(layout::kGlobalsBase, 0x1000, PermRW, "data");
    MachineState st;
    st.isa = IsaKind::Risc;
    const IsaDescriptor &desc = isaDescriptor(st.isa);

    auto call = [&](SyscallNo no, uint32_t a1, uint32_t a2,
                    uint32_t a3) {
        st.setReg(desc.retReg, static_cast<uint32_t>(no));
        st.setReg(desc.argRegs[1], a1);
        st.setReg(desc.argRegs[2], a2);
        st.setReg(desc.argRegs[3], a3);
        EXPECT_TRUE(os.handleSyscall(st, mem));
        return st.reg(desc.retReg);
    };

    // WriteBuf from an unmapped pointer: -1, not a single byte out.
    EXPECT_EQ(call(SyscallNo::WriteBuf, 0x10, 64, 0), uint32_t(-1));
    EXPECT_EQ(os.totalOutputBytes(), 0u);
    // A buffer straddling the end of the mapped window is rejected
    // whole — validation is all-or-nothing, never a partial stream.
    EXPECT_EQ(call(SyscallNo::WriteBuf,
                   layout::kGlobalsBase + 0x1000 - 8, 64, 0),
              uint32_t(-1));
    EXPECT_EQ(os.totalOutputBytes(), 0u);
    // A good pointer still works: len bytes plus the marker byte.
    EXPECT_EQ(call(SyscallNo::WriteBuf, layout::kGlobalsBase, 8, 0),
              8u);
    EXPECT_EQ(os.totalOutputBytes(), 9u);

    // SetJmp into unmapped memory: -1, nothing written.
    EXPECT_EQ(call(SyscallNo::SetJmp, 0x20, 0x1234, 0), uint32_t(-1));

    // LongJmp from a bad jmp_buf: -1 with sp/pc untouched — a corrupt
    // pointer must not half-restore the machine.
    const Addr pc_before = st.pc;
    const uint32_t sp_before = st.sp();
    EXPECT_EQ(call(SyscallNo::LongJmp, 0x20, 7, 0), uint32_t(-1));
    EXPECT_EQ(st.pc, pc_before);
    EXPECT_EQ(st.sp(), sp_before);
    EXPECT_FALSE(os.takeRedirect());

    // The validated path still round-trips through a good buffer.
    const Addr buf = layout::kGlobalsBase + 64;
    st.setSp(0x00ff0000);
    EXPECT_EQ(call(SyscallNo::SetJmp, buf, 0x00401000, 0), 0u);
    call(SyscallNo::LongJmp, buf, 42, 0);
    EXPECT_TRUE(os.takeRedirect());
    EXPECT_EQ(st.pc, 0x00401000u);
    EXPECT_EQ(st.sp(), 0x00ff0000u);
    EXPECT_EQ(mem.read32(buf + 8), 42u);
}

// Mid-run server checkpoint equivalence: a server checkpointed after
// N rounds and restored into a fresh instance (same binary, same
// config) finishes with the byte-identical report the uninterrupted
// run produces — caches, traces, and inline caches rebuild cold on
// the restored side without perturbing a single observable outcome.
TEST(ProtectedServer, CheckpointRestoreContinuesByteIdentically)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 60;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 0.5;

    ProtectedServer a(httpdBin(), cfg);
    a.beginRun();
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(a.stepRound());
    ByteWriter snap;
    a.saveCheckpoint(snap);
    while (a.stepRound()) {
    }
    ServerReport ra = a.finishRun();

    ProtectedServer b(httpdBin(), cfg);
    b.beginRun();
    ByteReader r(snap.data());
    b.loadCheckpoint(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.roundNumber(), 6u);
    while (b.stepRound()) {
    }
    ServerReport rb = b.finishRun();

    EXPECT_EQ(rb.signature, ra.signature);
    EXPECT_EQ(rb.rounds, ra.rounds);
    EXPECT_EQ(rb.requestsServed, ra.requestsServed);
    EXPECT_EQ(rb.migrations, ra.migrations);
    EXPECT_EQ(rb.securityEvents, ra.securityEvents);
    EXPECT_EQ(rb.crashes, ra.crashes);
    EXPECT_EQ(rb.respawns, ra.respawns);
    EXPECT_EQ(rb.totalGuestInsts, ra.totalGuestInsts);
    EXPECT_EQ(rb.latency.p95Rounds, ra.latency.p95Rounds);
}
