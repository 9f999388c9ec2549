/**
 * @file
 * PSR-aware cross-ISA execution migration (Sections 3.2, 5.2).
 *
 * At a migration-safe equivalence point, the engine:
 *
 *  1. unwinds the source stack frame-by-frame through the relocated
 *     return-address slots, identifying each frame's function and its
 *     pending call site;
 *  2. lays out the destination stack with the target ISA's (generally
 *     different) randomized frame sizes;
 *  3. moves every live value from its source-randomized location
 *     (register after renaming, relocated register slot, or recolored
 *     canonical slot) to its destination-randomized location — the
 *     "PSR-aware" requirement of Section 5.2 — recovering
 *     callee-saved registers of interior frames through the save-slot
 *     chain like a DWARF unwinder;
 *  4. rebases affine frame pointers by the per-frame sp delta (the
 *     on-demand extension);
 *  5. rewrites every return address to the target ISA's call-site
 *     address and copies fixed frame objects verbatim (the common
 *     frame map guarantees identical object layout).
 */

#ifndef HIPSTR_MIGRATION_TRANSFORM_HH
#define HIPSTR_MIGRATION_TRANSFORM_HH

#include <string>

#include "binary/fatbin.hh"
#include "migration/safety.hh"
#include "vm/psr_vm.hh"

namespace hipstr
{

/** Outcome and work accounting of one migration. */
struct MigrationOutcome
{
    bool ok = false;
    std::string error;
    Addr resumePc = 0;     ///< destination-ISA guest resume address
    uint32_t frames = 0;
    uint32_t valuesMoved = 0;
    uint32_t objectBytes = 0;
    uint32_t raRewrites = 0;
    uint32_t pointersRebased = 0;
    double microseconds = 0; ///< modeled cost (see cost model below)

    /** Smallest encoding (empty error), for ByteReader::count. */
    static constexpr size_t kMinBytes = 37;

    /** Checkpoint field walk (support/serialize.hh). */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &mo)
    {
        io.boolean(mo.ok);
        io.str(mo.error);
        io.u32(mo.resumePc);
        io.u32(mo.frames);
        io.u32(mo.valuesMoved);
        io.u32(mo.objectBytes);
        io.u32(mo.raRewrites);
        io.u32(mo.pointersRebased);
        io.f64(mo.microseconds);
    }
};

/**
 * Cost model for the state transformation, executed on the
 * *destination* core (which is why ARM-bound migrations cost more —
 * the paper reports 909 us toward x86 and 1.287 ms toward ARM).
 * Constants calibrated so typical checkpoints land near the paper's
 * measurements; see bench_fig12_migration.
 */
struct MigrationCostModel
{
    double baseCycles = 1'000'000;
    double cyclesPerFrame = 400'000;
    double cyclesPerValue = 60'000;
    double cyclesPerObjectByte = 800;
    double cyclesPerRaRewrite = 32'000;

    /** Destination core frequency in GHz (Table 1). */
    static double destFrequencyGhz(IsaKind dest);

    double microseconds(const MigrationOutcome &o, IsaKind dest) const;
};

/** The migration engine; one per HIPStR runtime. */
class MigrationEngine
{
  public:
    explicit MigrationEngine(const FatBinary &bin, Memory &mem)
        : _bin(bin), _mem(mem)
    {
    }

    /**
     * Transform state so execution resumes on @p to at the equivalence
     * point matching @p from's guest address @p guest_pc. On failure
     * (not a safe point, unwalkable stack) nothing is modified and
     * @c ok is false — the caller keeps executing on the source ISA.
     */
    MigrationOutcome migrate(PsrVm &from, PsrVm &to, Addr guest_pc);

  private:
    const FatBinary &_bin;
    Memory &_mem;
    MigrationCostModel _cost;
};

} // namespace hipstr

#endif // HIPSTR_MIGRATION_TRANSFORM_HH
