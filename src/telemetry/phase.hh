/**
 * @file
 * Per-phase profiling scopes for the runtime's four cost centers:
 *
 *   Translate          PsrTranslator unit translation
 *   Regalloc           randomized register allocation (permutation +
 *                      Cisc register-to-slot relocation) during
 *                      relocation-map generation
 *   Relocation         stack-slot recoloring during map generation,
 *                      plus whole-map regeneration on reRandomize()
 *   MigrationTransform the Section 5.2 cross-ISA state transformation
 *
 * Accounting is *modeled*, never wall clock: invocation counts, phase
 * work units (guest instructions translated, registers permuted,
 * slots recolored, values moved), and modeled microseconds derived
 * from the calibrated cost models. That keeps the breakdown
 * deterministic — it can live inside HipstrRunSummary, ServerReport,
 * and the byte-identical BENCH_*.json exports — and free of clock
 * syscalls on the paths it instruments (all of which are cold:
 * translation, map generation, migration).
 */

#ifndef HIPSTR_TELEMETRY_PHASE_HH
#define HIPSTR_TELEMETRY_PHASE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace hipstr::telemetry
{

/** The profiled phases. */
enum class Phase : uint8_t
{
    Translate,
    Regalloc,
    Relocation,
    MigrationTransform,
    kNum
};

constexpr size_t kNumPhases = static_cast<size_t>(Phase::kNum);

const char *phaseName(Phase p);

/**
 * Modeled cost coefficients for phases whose producers have no core
 * frequency at hand. Translation charges the executing core's real
 * frequency (the VM owns a CoreConfig); map generation is host-side
 * work charged at a nominal ~3 GHz service processor, and trace
 * timestamps advance guest instructions at a nominal 1 GIPS. All
 * three are fixed constants so the resulting accounting is a pure
 * function of the work performed.
 */
namespace cost
{
/** Regalloc: per register permuted/relocated (~150 cycles @ 3 GHz). */
constexpr double kRegallocUsPerReg = 0.05;
/** Relocation: per stack slot recolored (~360 cycles @ 3 GHz). */
constexpr double kRelocationUsPerSlot = 0.12;
/** Nominal guest execution rate for trace timestamps (1 GIPS). */
constexpr double kGuestInstsPerMicro = 1000.0;
} // namespace cost

/** Accounting for one phase. */
struct PhaseStats
{
    uint64_t invocations = 0;
    uint64_t workUnits = 0;   ///< phase-specific (see file comment)
    double modeledMicros = 0; ///< modeled cost on the executing core

    /** Checkpoint field walk (support/serialize.hh). */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &p)
    {
        io.u64(p.invocations);
        io.u64(p.workUnits);
        io.f64(p.modeledMicros);
    }

    void
    add(uint64_t units, double micros)
    {
        ++invocations;
        workUnits += units;
        modeledMicros += micros;
    }

    PhaseStats &
    operator+=(const PhaseStats &o)
    {
        invocations += o.invocations;
        workUnits += o.workUnits;
        modeledMicros += o.modeledMicros;
        return *this;
    }

    PhaseStats &
    operator-=(const PhaseStats &o)
    {
        invocations -= o.invocations;
        workUnits -= o.workUnits;
        modeledMicros -= o.modeledMicros;
        return *this;
    }
};

/** The full per-phase breakdown a summary carries. */
struct PhaseBreakdown
{
    std::array<PhaseStats, kNumPhases> phases{};

    PhaseStats &
    operator[](Phase p)
    {
        return phases[static_cast<size_t>(p)];
    }
    const PhaseStats &
    operator[](Phase p) const
    {
        return phases[static_cast<size_t>(p)];
    }

    /** Checkpoint field walk (support/serialize.hh). */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &b)
    {
        for (auto &p : b.phases)
            PhaseStats::fields(io, p);
    }

    PhaseBreakdown &
    operator+=(const PhaseBreakdown &o)
    {
        for (size_t i = 0; i < kNumPhases; ++i)
            phases[i] += o.phases[i];
        return *this;
    }

    PhaseBreakdown &
    operator-=(const PhaseBreakdown &o)
    {
        for (size_t i = 0; i < kNumPhases; ++i)
            phases[i] -= o.phases[i];
        return *this;
    }

    double
    totalModeledMicros() const
    {
        double t = 0;
        for (const PhaseStats &p : phases)
            t += p.modeledMicros;
        return t;
    }
};

inline PhaseBreakdown
operator+(PhaseBreakdown a, const PhaseBreakdown &b)
{
    a += b;
    return a;
}

inline PhaseBreakdown
operator-(PhaseBreakdown a, const PhaseBreakdown &b)
{
    a -= b;
    return a;
}

class MetricRegistry;

/**
 * Register @p bd's counters under "<prefix>.<phase>.{invocations,
 * work_units}" counters and "<prefix>.<phase>.modeled_us" gauges in
 * @p reg (set, not accumulated — callers export a finished
 * breakdown).
 */
void exportPhases(MetricRegistry &reg, const char *prefix,
                  const PhaseBreakdown &bd);

} // namespace hipstr::telemetry

#endif // HIPSTR_TELEMETRY_PHASE_HH
