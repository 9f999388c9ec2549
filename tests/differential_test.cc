/**
 * @file
 * Differential testing: every workload program runs under the plain
 * reference interpreter and under the PSR VM — on both ISAs, across a
 * seed sweep — and must produce the identical guest-visible outcome
 * (exit code and output checksum). This is the paper's "legitimate
 * execution is unaffected" invariant (Section 5.3) checked as a
 * product over the whole workload suite, not just hand-picked cases.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/codec.hh"
#include "test_util.hh"
#include "vm/jit/engine.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

constexpr uint64_t kMaxInsts = 400'000'000;
constexpr unsigned kSeeds = 8;

struct Reference
{
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
};

/** Native run on the reference interpreter. */
Reference
referenceRun(const FatBinary &bin, IsaKind isa)
{
    test::NativeRun native = test::runNative(bin, isa, kMaxInsts);
    EXPECT_EQ(native.result.reason, StopReason::Exited);
    return Reference{ native.exitCode, native.outputChecksum };
}

void
expectVmMatchesNative(const FatBinary &bin, IsaKind isa,
                      const Reference &ref, uint64_t seed,
                      const std::string &label)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = seed;
    // Vary the optimization level with the seed so the sweep also
    // crosses the translator's O1/O2/O3 configurations.
    cfg.optLevel = unsigned(seed % 3) + 1;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r = vm.run(kMaxInsts);
    ASSERT_EQ(r.reason, VmStop::Exited) << label;
    EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
    EXPECT_EQ(os.outputChecksum(), ref.outputChecksum) << label;
}

TEST(Differential, EveryWorkloadBothIsasAcrossSeeds)
{
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            Reference ref = referenceRun(bin, isa);
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                expectVmMatchesNative(
                    bin, isa, ref, seed,
                    name + "/" + isaName(isa) + "/seed=" +
                        std::to_string(seed));
            }
        }
    }
}

/** Field-wise equality of two decoded instructions. */
bool
sameInst(const MachInst &a, const MachInst &b)
{
    return a.op == b.op && a.cond == b.cond && a.dst == b.dst &&
        a.src1 == b.src1 && a.src2 == b.src2 && a.target == b.target &&
        a.size == b.size;
}

TEST(Differential, ReferenceInterpreterMatchesRawDecode)
{
    // The reference interpreter executes cached decodes. Every
    // instruction it executes must equal a fresh decodeInst at that
    // pc, or the oracle the VM is checked against is itself wrong.
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            const std::string label = name + "/" + isaName(isa);
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            Interpreter interp(isa, mem, os);
            initMachineState(interp.state, bin, isa);
            uint64_t checked = 0, mismatches = 0;
            Addr first_bad = 0;
            interp.traceHook = [&](const MachInst &mi, Addr pc) {
                ++checked;
                MachInst raw;
                if (!decodeInst(isa, mem, pc, raw) ||
                    !sameInst(mi, raw)) {
                    if (mismatches++ == 0)
                        first_bad = pc;
                }
            };
            RunResult r = interp.run(kMaxInsts);
            EXPECT_EQ(r.reason, StopReason::Exited) << label;
            EXPECT_EQ(checked, r.instsExecuted) << label;
            EXPECT_EQ(mismatches, 0u)
                << label << ": first at pc 0x" << std::hex << first_bad;
        }
    }
}

TEST(Differential, OutputAgreesAcrossIsas)
{
    // The workloads are self-checking and ISA-independent: the two
    // native runs of one binary must agree with each other, which is
    // what lets the protected server verify either-ISA workers
    // against a single reference checksum.
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        Reference risc = referenceRun(bin, IsaKind::Risc);
        Reference cisc = referenceRun(bin, IsaKind::Cisc);
        EXPECT_EQ(risc.exitCode, cisc.exitCode) << name;
        EXPECT_EQ(risc.outputChecksum, cisc.outputChecksum) << name;
    }
}

// ------------------------------------------------------------------
// Inline-cache adversarial case.
//
// The httpd workload's request loop drives one CallInd site through
// four alternating handler targets — exactly the shape the per-site
// indirect-branch inline caches (IBTC) and RAT block memoization
// accelerate, and exactly where a dispatch bug would silently change
// control flow instead of failing loudly. These tests compare the
// *indirect control trace* (every Ret / CallInd / JmpInd transfer,
// with its guest target) of the PSR VM against the reference
// interpreter, instruction for instruction, on both ISAs, and then
// re-check it while every translation, chain, RAT memo, and IBTC way
// is repeatedly destroyed mid-run.
//
// Direct branches are deliberately excluded from the comparison: with
// superblocks (O1+) the translator inlines them, so the VM's 'B'/'C'
// events are not 1:1 with guest jumps. Indirect transfers and returns
// can never be inlined — the security policy lives there — so they
// must match exactly.
// ------------------------------------------------------------------

/** One indirect control transfer: kind ('I' or 'R') and guest target. */
struct ControlEvent
{
    char kind;
    Addr target;

    bool operator==(const ControlEvent &o) const
    {
        return kind == o.kind && target == o.target;
    }
};

using test::dataChecksum;

/** Reference indirect-control trace plus final-state fingerprint. */
struct ReferenceTrace
{
    std::vector<ControlEvent> events;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t dataChecksum = 0;
};

/**
 * Run the reference interpreter and record every indirect transfer.
 * The interpreter's traceHook fires *before* execution, so a control
 * instruction's target is the pc of the next hook invocation.
 */
ReferenceTrace
referenceControlTrace(const FatBinary &bin, IsaKind isa)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    Interpreter interp(isa, mem, os);
    initMachineState(interp.state, bin, isa);

    ReferenceTrace ref;
    bool pending = false;
    interp.traceHook = [&](const MachInst &mi, Addr pc) {
        if (pending) {
            ref.events.back().target = pc;
            pending = false;
        }
        char kind = 0;
        if (mi.op == Op::CallInd || mi.op == Op::JmpInd)
            kind = 'I';
        else if (mi.op == Op::Ret)
            kind = 'R';
        if (kind != 0) {
            ref.events.push_back(ControlEvent{kind, 0});
            pending = true;
        }
    };
    RunResult r = interp.run(kMaxInsts);
    EXPECT_EQ(r.reason, StopReason::Exited);
    EXPECT_FALSE(pending); // an Exited run always ends on a syscall
    ref.exitCode = os.exitCode();
    ref.outputChecksum = os.outputChecksum();
    ref.dataChecksum = dataChecksum(mem);
    return ref;
}

void
expectTraceMatches(const std::vector<ControlEvent> &got,
                   const ReferenceTrace &ref, const PsrVm &vm,
                   const GuestOs &os, const Memory &mem,
                   const std::string &label)
{
    ASSERT_EQ(got.size(), ref.events.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == ref.events[i])
            << label << ": transfer " << i << " is " << got[i].kind
            << "@0x" << std::hex << got[i].target << ", reference "
            << ref.events[i].kind << "@0x" << ref.events[i].target;
    }
    EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
    EXPECT_EQ(os.outputChecksum(), ref.outputChecksum) << label;
    EXPECT_EQ(dataChecksum(mem), ref.dataChecksum) << label;
    // Internal consistency of the security-policy counters always
    // holds; specific event counts are asserted by the callers.
    EXPECT_EQ(vm.stats.securityEvents, vm.stats.codeCacheMisses)
        << label;
}

TEST(Differential, InlineCacheAdversarialTraceBothIsas)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        ASSERT_GT(ref.events.size(), 100u) << isaName(isa)
            << ": httpd should exercise the indirect site heavily";
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = seed;
            cfg.optLevel = unsigned(seed % 3) + 1;
            PsrVm vm(bin, isa, mem, os, cfg);
            std::vector<ControlEvent> got;
            vm.controlTraceHook = [&](Addr target, char kind) {
                if (kind == 'I' || kind == 'R' || kind == 'J')
                    got.push_back(ControlEvent{kind, target});
            };
            vm.reset();
            VmRunResult r = vm.run(kMaxInsts);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            expectTraceMatches(got, ref, vm, os, mem, label);
            // With a generous cache the only legitimate suspected-
            // breach events are the cold first transfers to the (at
            // most four) handler targets before they are translated;
            // the inline caches and RAT memos must not add one beyond
            // that (Section 3.5).
            EXPECT_LE(vm.stats.securityEvents, 4u) << label;
            // The alternating handler table guarantees real indirect
            // pressure on one site.
            EXPECT_GT(vm.stats.indirectTransfers, 100u) << label;
        }
    }
}

TEST(Differential, InlineCacheSurvivesMidRunInvalidation)
{
    // Adversarial invalidation: flushTranslations() is the mid-run
    // flush the server issues on translator faults — it destroys
    // every translation, chain, RAT memo, and IBTC way while guest
    // frames stay live (unlike reRandomize(), which regenerates the
    // relocation maps and is therefore only legal at a respawn
    // boundary; the live-state variant is the migration engine's
    // PSR-aware transform, covered by migration_test). Slicing the
    // run and flushing every few quanta forces the dispatcher to
    // rebuild its fast-path state at arbitrary points; the indirect
    // control trace must not gain, lose, or reorder one transfer.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd-flush/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = seed;
            cfg.optLevel = unsigned(seed % 3) + 1;
            PsrVm vm(bin, isa, mem, os, cfg);
            std::vector<ControlEvent> got;
            vm.controlTraceHook = [&](Addr target, char kind) {
                if (kind == 'I' || kind == 'R' || kind == 'J')
                    got.push_back(ControlEvent{kind, target});
            };
            vm.reset();
            VmRunResult r;
            unsigned slice = 0;
            do {
                r = vm.run(5'000);
                if (r.reason == VmStop::StepLimit &&
                    ++slice % 2 == 0)
                    vm.flushTranslations();
            } while (r.reason == VmStop::StepLimit);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            ASSERT_GT(slice, 5u)
                << label << ": run too short to stress invalidation";
            expectTraceMatches(got, ref, vm, os, mem, label);
            // A post-flush indirect transfer legitimately misses the
            // cache and raises a suspected-breach event (that is the
            // Section 3.5 policy firing on a cold cache); with no
            // securityEventHook installed execution continues. The
            // trace equality above proves the events changed nothing
            // guest-visible.
        }
    }
}

TEST(Differential, InlineCacheFreshAfterRespawnReRandomize)
{
    // reRandomize() at the respawn boundary (the server's Section 5.3
    // discipline): generation 2 runs under entirely fresh relocation
    // maps, with every inline cache rebuilt from scratch, and must
    // reproduce the identical indirect control trace.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        const std::string base =
            std::string("httpd-respawn/") + isaName(isa);
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.seed = 5;
        PsrVm vm(bin, isa, mem, os, cfg);
        std::vector<ControlEvent> got;
        vm.controlTraceHook = [&](Addr target, char kind) {
            if (kind == 'I' || kind == 'R' || kind == 'J')
                got.push_back(ControlEvent{kind, target});
        };
        const uint64_t gen0 = vm.randomizer().generation();
        for (int generation = 0; generation < 2; ++generation) {
            const std::string label =
                base + "/gen=" + std::to_string(generation);
            // Pristine address space per generation, exactly like the
            // server's respawnImage(): wipe the mutable image and
            // reload the fat binary.
            mem.zeroRange(layout::kDataBase,
                          layout::kStackTop - layout::kDataBase);
            loadFatBinary(bin, mem);
            os.reset();
            got.clear();
            vm.reset();
            VmRunResult r = vm.run(kMaxInsts);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            expectTraceMatches(got, ref, vm, os, mem, label);
            vm.reRandomize();
        }
        EXPECT_EQ(vm.randomizer().generation(), gen0 + 2);
    }
}

// ------------------------------------------------------------------
// Trace-tier differential sweeps.
//
// Superblock traces and the JIT that compiles them are a pure
// execution-engine change, so the obligation is stronger than
// guest-visible equality: every *deterministic* VmStats counter
// (guest/host instructions, memory ops, security events) must be
// identical between HIPSTR_JIT on and off — compiled traces fold the
// same translate-time deltas at the same block boundaries as the
// plain block loop, and any divergence means emitted code and the
// block loop disagreed about what executed. On-trace edges count as
// traceFollows instead of chainFollows, so only the sum
// dispatches + chainFollows + traceFollows is compared.
// controlTraceHook is deliberately NOT installed here: a hooked run
// stays on the plain block loop, so these sweeps compare checksums
// and counters instead.
// ------------------------------------------------------------------

/** Everything a JIT-vs-block-loop run pair must agree on. */
struct EngineOutcome
{
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t dataChecksum = 0;
    uint64_t guestInsts = 0;
    uint64_t hostInsts = 0;
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t securityEvents = 0;
    /** dispatches + chainFollows + traceFollows (conserved). */
    uint64_t transfers = 0;
    uint64_t traceFollows = 0;
    uint64_t jitExecutions = 0;

    void
    expectDeterministicallyEqual(const EngineOutcome &o,
                                 const std::string &label) const
    {
        EXPECT_EQ(exitCode, o.exitCode) << label;
        EXPECT_EQ(outputChecksum, o.outputChecksum) << label;
        EXPECT_EQ(dataChecksum, o.dataChecksum) << label;
        EXPECT_EQ(guestInsts, o.guestInsts) << label;
        EXPECT_EQ(hostInsts, o.hostInsts) << label;
        EXPECT_EQ(memReads, o.memReads) << label;
        EXPECT_EQ(memWrites, o.memWrites) << label;
        EXPECT_EQ(securityEvents, o.securityEvents) << label;
        EXPECT_EQ(transfers, o.transfers) << label;
    }
};

/**
 * One complete run under the given JIT mode. @p flushEvery > 0
 * slices the run and issues a mid-run flushTranslations() every that
 * many StepLimit stops — the adversarial invalidation schedule, kept
 * identical across modes so the deterministic counters stay
 * comparable.
 */
EngineOutcome
engineRun(const FatBinary &bin, IsaKind isa, uint64_t seed,
          PsrConfig::JitMode mode, unsigned flushEvery,
          const std::string &label)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = seed;
    cfg.optLevel = unsigned(seed % 3) + 1;
    cfg.jitMode = mode;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r;
    if (flushEvery == 0) {
        r = vm.run(kMaxInsts);
    } else {
        unsigned slice = 0;
        do {
            r = vm.run(5'000);
            if (r.reason == VmStop::StepLimit &&
                ++slice % flushEvery == 0)
                vm.flushTranslations();
        } while (r.reason == VmStop::StepLimit);
        EXPECT_GT(slice, 5u)
            << label << ": run too short to stress invalidation";
    }
    EXPECT_EQ(r.reason, VmStop::Exited) << label;
    EngineOutcome out;
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.dataChecksum = dataChecksum(mem);
    out.guestInsts = vm.stats.guestInsts;
    out.hostInsts = vm.stats.hostInsts;
    out.memReads = vm.stats.memReads;
    out.memWrites = vm.stats.memWrites;
    out.securityEvents = vm.stats.securityEvents;
    out.transfers = vm.stats.dispatches + vm.stats.chainFollows +
        vm.stats.traceFollows;
    out.traceFollows = vm.stats.traceFollows;
    out.jitExecutions = vm.jitStats().executions;
    const char *reason = nullptr;
    const bool host_ok = jit::TraceJit::hostSupported(&reason);
    EXPECT_EQ(vm.jitEnabled(),
              mode == PsrConfig::JitMode::On && host_ok)
        << label;
    if (mode == PsrConfig::JitMode::Off) {
        EXPECT_EQ(out.jitExecutions, 0u) << label;
        EXPECT_EQ(out.traceFollows, 0u) << label;
    }
    return out;
}

TEST(Differential, TraceJitOnOffMatchesReference)
{
    // Workloads x ISAs x seed sweep (O1-O3), each seed run with the
    // trace tier forced on and forced off. Both runs must match the
    // reference interpreter's guest-visible outcome — exit code,
    // output, and mutable-data checksum — AND each other's
    // deterministic counters.
    uint64_t jit_executions_total = 0;
    uint64_t trace_follows_total = 0;
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            ReferenceTrace ref = referenceControlTrace(bin, isa);
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const std::string label = name + "/" + isaName(isa) +
                    "/seed=" + std::to_string(seed);
                EngineOutcome off =
                    engineRun(bin, isa, seed, PsrConfig::JitMode::Off,
                              0, label + "/jit=off");
                EngineOutcome on =
                    engineRun(bin, isa, seed, PsrConfig::JitMode::On,
                              0, label + "/jit=on");
                for (const EngineOutcome *o : { &off, &on }) {
                    EXPECT_EQ(o->exitCode, ref.exitCode) << label;
                    EXPECT_EQ(o->outputChecksum, ref.outputChecksum)
                        << label;
                    EXPECT_EQ(o->dataChecksum, ref.dataChecksum)
                        << label;
                }
                off.expectDeterministicallyEqual(on, label);
                jit_executions_total += on.jitExecutions;
                trace_follows_total += on.traceFollows;
            }
        }
    }
    const char *reason = nullptr;
    if (jit::TraceJit::hostSupported(&reason)) {
        // On a JIT-capable host the sweep must actually form traces
        // and run compiled code somewhere, or the comparison is
        // vacuous.
        EXPECT_GT(jit_executions_total, 0u);
        EXPECT_GT(trace_follows_total, 0u);
    }
}

TEST(Differential, TraceJitSurvivesMidRunInvalidation)
{
    // flushTranslations() mid-run retires every compiled trace while
    // guest frames stay live; the JIT must recompile on re-entry and
    // the identical flush schedule under both modes must leave every
    // deterministic counter equal.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        Reference ref = referenceRun(bin, isa);
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd-jitflush/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            EngineOutcome off =
                engineRun(bin, isa, seed, PsrConfig::JitMode::Off, 2,
                          label + "/jit=off");
            EngineOutcome on =
                engineRun(bin, isa, seed, PsrConfig::JitMode::On, 2,
                          label + "/jit=on");
            EXPECT_EQ(on.exitCode, ref.exitCode) << label;
            EXPECT_EQ(on.outputChecksum, ref.outputChecksum) << label;
            off.expectDeterministicallyEqual(on, label);
        }
    }
}

TEST(Differential, TraceJitFreshAfterRespawnReRandomize)
{
    // reRandomize() at the respawn boundary regenerates every
    // relocation map and retires every compiled trace; generation 2
    // must recompile from scratch and still reproduce the reference
    // outcome with counters equal across JIT modes.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        const std::string base =
            std::string("httpd-jitrespawn/") + isaName(isa);
        for (PsrConfig::JitMode mode : { PsrConfig::JitMode::Off,
                                         PsrConfig::JitMode::On }) {
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = 5;
            cfg.jitMode = mode;
            PsrVm vm(bin, isa, mem, os, cfg);
            for (int generation = 0; generation < 2; ++generation) {
                const std::string label = base + "/gen=" +
                    std::to_string(generation) +
                    (mode == PsrConfig::JitMode::On ? "/jit=on"
                                                    : "/jit=off");
                mem.zeroRange(layout::kDataBase,
                              layout::kStackTop - layout::kDataBase);
                loadFatBinary(bin, mem);
                os.reset();
                vm.reset();
                VmRunResult r = vm.run(kMaxInsts);
                ASSERT_EQ(r.reason, VmStop::Exited) << label;
                EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
                EXPECT_EQ(os.outputChecksum(), ref.outputChecksum)
                    << label;
                EXPECT_EQ(dataChecksum(mem), ref.dataChecksum)
                    << label;
                vm.reRandomize();
            }
        }
    }
}

} // namespace
} // namespace hipstr
