/**
 * @file
 * PSR configuration: the Table 3 optimization levels and the entropy
 * knobs the evaluation sweeps (randomization space, register bias).
 */

#ifndef HIPSTR_CORE_PSR_CONFIG_HH
#define HIPSTR_CORE_PSR_CONFIG_HH

#include <cstdint>
#include <string>

namespace hipstr
{

/**
 * Configuration of one PSR virtual machine.
 *
 * Optimization levels follow the paper's Table 3:
 *   O0  no optimization
 *   O1  machine block placement, branch inlining + superblocks
 *   O2  O1 + global register cache (3 entries)
 *   O3  O2 + PSR with a register bias
 */
struct PsrConfig
{
    unsigned optLevel = 3;

    /**
     * Randomization space added to every frame at translation time.
     * The paper allocates 2-16 pages (8-64 KB), giving 13-16 bits of
     * entropy per relocated parameter (Section 5.1); Figure 10 sweeps
     * this. Default: 8 KB (13 bits).
     */
    uint32_t randSpaceBytes = 8192;

    /** Individual transformation switches (all on for real PSR). @{ */
    bool randomizeCallingConvention = true;
    bool randomizeRegisters = true;   ///< register permutation
    bool relocateRegsToMemory = true; ///< Cisc-only full relocation
    bool randomizeSlots = true;       ///< stack-slot coloring
    /** @} */

    /** Code cache capacity in bytes (Figure 13 sweeps this). */
    uint32_t codeCacheBytes = 2 * 1024 * 1024;

    /** Hardware return-address-table entries (Figure 11 sweep). */
    unsigned ratEntries = 512;

    /** Global register cache entries (paper fixes this at 3). */
    unsigned regCacheEntries = 3;

    /** Superblock formation limit (guest blocks inlined per unit). */
    unsigned maxSuperblockBlocks = 8;

    /** Block entries before a head is considered for trace formation. */
    unsigned traceHotThreshold = 32;

    /** Maximum guest blocks spliced into one trace (unrolling cap). */
    unsigned traceMaxBlocks = 16;

    /**
     * The trace tier: superblock trace formation plus the JIT that
     * compiles every formed trace to direct x86-64 code. FromEnv
     * honours HIPSTR_JIT=0/1 (default on); On/Off force the decision
     * regardless of the environment — differential tests use the
     * forced modes to compare the tier against the plain block loop.
     * The tier additionally requires O1+ (chaining), an x86-64 host,
     * and a sanitizer-free build. A run with a control-trace hook or
     * memory journaling live uses the plain block loop throughout.
     */
    enum class JitMode : uint8_t
    {
        FromEnv,
        On,
        Off
    };
    JitMode jitMode = JitMode::FromEnv;

    /**
     * Executable-arena size for compiled traces. Bump-allocated with
     * generational reclaim: when full, every compiled trace is
     * stranded and recompiles lazily. Tiny arenas (a few KiB) are the
     * eviction-storm stress mode the jit_smoke tier uses.
     */
    size_t jitArenaBytes = 1u << 20;

    /**
     * Isomeron baseline mode (Davi et al.): function-granularity
     * two-variant execution-path diversification with a coin flip at
     * every call and return. No PSR transformations; chaining across
     * calls is impossible (the flip must consult the diversifier) and
     * each flip pays shepherding overhead in the timing model.
     */
    bool isomeronMode = false;

    /** Randomizer seed; re-randomization derives fresh streams. */
    uint64_t seed = 0x5eed;

    /** Derived optimization switches (Table 3). @{ */
    bool blockPlacement() const { return optLevel >= 1; }
    bool superblocks() const { return optLevel >= 1; }
    bool globalRegCache() const { return optLevel >= 2; }
    bool registerBias() const { return optLevel >= 3; }
    /** @} */

    /** Disable every randomizing transformation (plain DBT). */
    static PsrConfig
    noRandomization()
    {
        PsrConfig cfg;
        cfg.randomizeCallingConvention = false;
        cfg.randomizeRegisters = false;
        cfg.relocateRegsToMemory = false;
        cfg.randomizeSlots = false;
        cfg.randSpaceBytes = 0;
        return cfg;
    }

    /** The Isomeron baseline: diversification without PSR. */
    static PsrConfig
    isomeron()
    {
        PsrConfig cfg = noRandomization();
        cfg.isomeronMode = true;
        return cfg;
    }

    /** PSR + Isomeron hybrid (Figures 7, 8, 14). */
    static PsrConfig
    psrPlusIsomeron()
    {
        PsrConfig cfg;
        cfg.isomeronMode = true;
        return cfg;
    }

    std::string
    describe() const
    {
        std::string d = isomeronMode ? "isomeron" : "psr";
        d += "-O" + std::to_string(optLevel);
        d += ",space=" + std::to_string(randSpaceBytes / 1024) + "KB";
        d += ",cache=" + std::to_string(codeCacheBytes / 1024) + "KB";
        d += ",rat=" + std::to_string(ratEntries);
        if (!randomizeSlots && !randomizeRegisters &&
            !relocateRegsToMemory && !randomizeCallingConvention) {
            d += ",no-randomization";
        }
        return d;
    }
};

} // namespace hipstr

#endif // HIPSTR_CORE_PSR_CONFIG_HH
