/**
 * @file
 * Simulation-layer tests: cache model, RAT, register cache, core
 * configs, timing-model monotonicity properties, the exactness of the
 * caches' same-line shortcuts against a naive true-LRU model, and the
 * accounting of timed runs against untimed ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "sim/cache.hh"
#include "sim/core_config.hh"
#include "sim/rat.hh"
#include "sim/timing.hh"
#include "test_util.hh"
#include "vm/psr_vm.hh"
#include "support/random.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

TEST(CacheSim, HitsAfterFill)
{
    CacheSim cache(1024, 2, 64); // 16 lines, 8 sets
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103f)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(CacheSim, LruEvictionWithinSet)
{
    CacheSim cache(1024, 2, 64); // 8 sets: addresses 512 bytes apart
                                 // collide
    Addr a = 0x0000, b = 0x0200, c = 0x0400; // same set, 2 ways
    cache.access(a);
    cache.access(b);
    EXPECT_TRUE(cache.access(a));
    cache.access(c); // evicts b (LRU)
    EXPECT_TRUE(cache.access(a));
    EXPECT_FALSE(cache.access(b));
}

TEST(CacheSim, CapacityBehaviour)
{
    CacheSim small(1024, 2);
    CacheSim big(32 * 1024, 2);
    Rng rng(5);
    std::vector<Addr> addrs;
    for (int i = 0; i < 256; ++i)
        addrs.push_back(static_cast<Addr>(rng.below(16 * 1024)));
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr a : addrs) {
            small.access(a);
            big.access(a);
        }
    }
    EXPECT_LT(big.missRate(), small.missRate());
}

TEST(Rat, InsertLookupFlush)
{
    ReturnAddressTable rat(32);
    Addr out;
    EXPECT_FALSE(rat.lookup(0x1234, out));
    rat.insert(0x1234, 0xabcd);
    EXPECT_TRUE(rat.lookup(0x1234, out));
    EXPECT_EQ(out, 0xabcdu);
    // Updating an existing entry replaces the mapping.
    rat.insert(0x1234, 0x9999);
    EXPECT_TRUE(rat.lookup(0x1234, out));
    EXPECT_EQ(out, 0x9999u);
    rat.flush();
    EXPECT_FALSE(rat.lookup(0x1234, out));
}

TEST(Rat, CapacityEviction)
{
    ReturnAddressTable rat(8, 4);
    for (Addr a = 0; a < 64; ++a)
        rat.insert(0x400000 + a * 4, a);
    unsigned hits = 0;
    Addr out;
    for (Addr a = 0; a < 64; ++a)
        if (rat.lookup(0x400000 + a * 4, out))
            ++hits;
    EXPECT_LE(hits, 8u);
    EXPECT_GT(hits, 0u);
}

TEST(Rat, BigTableHoldsWorkingSet)
{
    ReturnAddressTable rat(512, 4);
    for (Addr a = 0; a < 200; ++a)
        rat.insert(0x400000 + a * 8, a);
    unsigned hits = 0;
    Addr out;
    for (Addr a = 0; a < 200; ++a)
        if (rat.lookup(0x400000 + a * 8, out))
            ++hits;
    // A 512-entry table should hold essentially all 200 call sites
    // (a few set conflicts are tolerable).
    EXPECT_GT(hits, 190u);
}

TEST(RegCache, ThreeEntryLru)
{
    RegCacheSim l0(3);
    EXPECT_FALSE(l0.access(1));
    EXPECT_FALSE(l0.access(2));
    EXPECT_FALSE(l0.access(3));
    EXPECT_TRUE(l0.access(1));
    EXPECT_TRUE(l0.access(2));
    EXPECT_FALSE(l0.access(4)); // evicts 3
    EXPECT_FALSE(l0.access(3));
}

TEST(CoreConfig, Table1Values)
{
    const CoreConfig &arm = coreConfig(IsaKind::Risc);
    const CoreConfig &x86 = coreConfig(IsaKind::Cisc);
    EXPECT_DOUBLE_EQ(arm.freqGhz, 2.0);
    EXPECT_DOUBLE_EQ(x86.freqGhz, 3.3);
    EXPECT_EQ(arm.fetchWidth, 2u);
    EXPECT_EQ(x86.fetchWidth, 4u);
    EXPECT_EQ(arm.robSize, 20u);
    EXPECT_EQ(x86.robSize, 128u);
    EXPECT_GT(x86.baseIpc, arm.baseIpc);
}

TEST(Timing, MoreWorkCostsMoreCycles)
{
    TimingHarness h(IsaKind::Cisc, true);
    VmStats a;
    a.hostInsts = 1000;
    VmStats b = a;
    b.hostInsts = 2000;
    EXPECT_LT(h.vmCycles(a), h.vmCycles(b));

    VmStats c = a;
    c.dispatches = 100;
    EXPECT_LT(h.vmCycles(a), h.vmCycles(c));

    VmStats d = a;
    d.diversificationFlips = 100;
    EXPECT_LT(h.vmCycles(a), h.vmCycles(d));
}

TEST(Timing, SecondsFollowFrequency)
{
    TimingHarness arm(IsaKind::Risc, true);
    TimingHarness x86(IsaKind::Cisc, true);
    EXPECT_GT(arm.seconds(1e9), x86.seconds(1e9));
}

/**
 * Naive true-LRU reference: per set, a list of resident line
 * addresses ordered most recently used first.
 */
class NaiveLru
{
  public:
    NaiveLru(unsigned sets, unsigned ways, unsigned line_shift)
        : _sets(sets), _ways(ways), _lineShift(line_shift)
    {
    }

    bool
    access(uint64_t addr)
    {
        const uint64_t line = addr >> _lineShift;
        std::list<uint64_t> &set = _sets[line % _sets.size()];
        auto it = std::find(set.begin(), set.end(), line);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == _ways)
            set.pop_back();
        set.push_front(line);
        ++(hit ? hits : misses);
        return hit;
    }

    void
    reset()
    {
        for (std::list<uint64_t> &set : _sets)
            set.clear();
        hits = misses = 0;
    }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    std::vector<std::list<uint64_t>> _sets;
    unsigned _ways;
    unsigned _lineShift;
};

/**
 * A seeded address stream over [0, span) with long runs inside one
 * granule (same cache line, or the same word), so the same-line
 * shortcut fires often, mixed with fresh random addresses and returns
 * to recently used ones, so sets fill, conflict and evict.
 */
std::vector<Addr>
runStream(uint64_t seed, size_t n, Addr span, unsigned granule_shift)
{
    Rng rng(seed);
    std::vector<Addr> out;
    std::vector<Addr> recent;
    Addr cur = 0;
    while (out.size() < n) {
        if (!recent.empty() && rng.chance(0.3))
            cur = rng.pick(recent);
        else
            cur = static_cast<Addr>(rng.below(span));
        recent.push_back(cur);
        if (recent.size() > 8)
            recent.erase(recent.begin());
        const Addr base = cur >> granule_shift << granule_shift;
        const size_t run = 1 + rng.below(rng.chance(0.5) ? 24 : 3);
        for (size_t k = 0; k < run && out.size() < n; ++k) {
            out.push_back(base +
                          static_cast<Addr>(
                              rng.below(uint64_t(1) << granule_shift)));
        }
    }
    return out;
}

TEST(CacheSim, SameLineShortcutMatchesNaiveLru)
{
    for (unsigned ways : { 1u, 2u, 4u }) {
        for (uint64_t seed : { 1u, 2u, 3u }) {
            CacheSim cache(1024, ways, 64); // 16 lines
            NaiveLru model(16 / ways, ways, 6);
            const std::vector<Addr> stream =
                runStream(seed, 20'000, 8 * 1024, 6);
            for (size_t k = 0; k < stream.size(); ++k) {
                if (k == stream.size() / 2) {
                    cache.reset();
                    model.reset();
                    ASSERT_EQ(cache.accesses(), 0u);
                }
                ASSERT_EQ(cache.access(stream[k]), model.access(stream[k]))
                    << "ways " << ways << " seed " << seed << " access "
                    << k << std::hex << " addr 0x" << stream[k];
            }
            EXPECT_EQ(cache.hits(), model.hits) << "ways " << ways;
            EXPECT_EQ(cache.misses(), model.misses) << "ways " << ways;
        }
    }
}

TEST(RegCache, SameWordShortcutMatchesNaiveLru)
{
    for (uint64_t seed : { 1u, 2u, 3u }) {
        RegCacheSim l0(3);
        NaiveLru model(1, 3, 0);
        // Word addresses over a small window: runs repeat one word.
        const std::vector<Addr> stream = runStream(seed, 20'000, 16, 0);
        for (size_t k = 0; k < stream.size(); ++k) {
            if (k == stream.size() / 2) {
                l0.reset();
                model.reset();
                ASSERT_EQ(l0.hits() + l0.misses(), 0u);
            }
            ASSERT_EQ(l0.access(stream[k]), model.access(stream[k]))
                << "seed " << seed << " access " << k << " word "
                << stream[k];
        }
        EXPECT_EQ(l0.hits(), model.hits);
        EXPECT_EQ(l0.misses(), model.misses);
    }
}

/** Timing-independent outcome of one VM run to exit. */
struct VmOutcome
{
    VmStop reason = VmStop::StepLimit;
    uint64_t checksum = 0;
    VmStats stats;
};

VmOutcome
runVm(const FatBinary &bin, IsaKind isa, TimingHarness *harness)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 7;
    cfg.jitMode = PsrConfig::JitMode::Off;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    if (harness != nullptr)
        harness->attachVm(vm);
    VmOutcome out;
    out.reason = vm.run(200'000'000).reason;
    out.checksum = os.outputChecksum();
    out.stats = vm.stats;
    return out;
}

TEST(Timing, TimedRunsAccountLikeUntimedRuns)
{
    for (const std::string &name : allWorkloadNames()) {
        const FatBinary bin = compileModule(buildWorkload(name));
        for (IsaKind isa : kAllIsas) {
            const std::string where =
                name + " on " + std::string(isaName(isa));
            const VmOutcome plain = runVm(bin, isa, nullptr);
            TimingHarness vm_harness(isa, /*reg_cache_on=*/true);
            const VmOutcome timed = runVm(bin, isa, &vm_harness);
            ASSERT_EQ(plain.reason, VmStop::Exited) << where;
            ASSERT_EQ(timed.reason, VmStop::Exited) << where;
            EXPECT_EQ(timed.checksum, plain.checksum) << where;
            const VmStats &a = plain.stats, &b = timed.stats;
            EXPECT_EQ(b.guestInsts, a.guestInsts) << where;
            EXPECT_EQ(b.hostInsts, a.hostInsts) << where;
            EXPECT_EQ(b.memReads, a.memReads) << where;
            EXPECT_EQ(b.memWrites, a.memWrites) << where;
            EXPECT_EQ(b.dispatches, a.dispatches) << where;
            EXPECT_EQ(b.chainFollows, a.chainFollows) << where;
            EXPECT_EQ(b.ratHits, a.ratHits) << where;
            EXPECT_EQ(b.ratMisses, a.ratMisses) << where;
            // The harness saw both streams.
            EXPECT_GT(vm_harness.snapshot().icacheMisses, 0u) << where;
            EXPECT_GT(vm_harness.snapshot().dcacheMisses, 0u) << where;

            // Native: an untimed warm-up, then the harness attached
            // for the rest of the run, as the figure harnesses do.
            const test::NativeRun ref = test::runNative(bin, isa);
            ASSERT_EQ(ref.result.reason, StopReason::Exited) << where;
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            Interpreter interp(isa, mem, os);
            initMachineState(interp.state, bin, isa);
            const uint64_t warmup = ref.instsExecuted * 2 / 5;
            const RunResult w = interp.run(warmup);
            ASSERT_EQ(w.instsExecuted, warmup) << where;
            TimingHarness native_harness(isa, /*reg_cache_on=*/true);
            native_harness.attachInterpreter(interp);
            const TimingSnapshot s0 = native_harness.snapshot();
            const RunResult r = interp.run(ref.instsExecuted + 1);
            EXPECT_EQ(r.reason, StopReason::Exited) << where;
            EXPECT_EQ(warmup + r.instsExecuted, ref.instsExecuted)
                << where;
            EXPECT_EQ(native_harness.snapshot().nativeInsts -
                          s0.nativeInsts,
                      r.instsExecuted)
                << where;
            EXPECT_EQ(os.outputChecksum(), ref.outputChecksum) << where;
        }
    }
}

} // namespace
} // namespace hipstr
