/**
 * @file
 * Model of the heterogeneous-ISA chip multiprocessor the server
 * subsystem schedules onto: N Risc cores plus M Cisc cores sharing
 * one physical machine (the paper's Section 3.5 deployment). Each
 * core carries its Table 1 CoreConfig, which the server's throughput
 * accounting uses to convert guest instructions into modeled time.
 */

#ifndef HIPSTR_SERVER_CMP_MODEL_HH
#define HIPSTR_SERVER_CMP_MODEL_HH

#include <string>
#include <vector>

#include "isa/isa.hh"
#include "sim/core_config.hh"

namespace hipstr
{

/** Core counts of the modeled CMP. */
struct CmpConfig
{
    unsigned riscCores = 2;
    unsigned ciscCores = 2;
};

/** One core of the CMP. */
struct CmpCore
{
    unsigned id = 0; ///< dense index, Risc cores first
    IsaKind isa = IsaKind::Risc;
};

/**
 * The machine. Core order is fixed (all Risc cores, then all Cisc
 * cores) so every scheduler decision keyed on core index is a pure
 * function of the configuration.
 */
class CmpModel
{
  public:
    explicit CmpModel(const CmpConfig &cfg);

    const std::vector<CmpCore> &cores() const { return _cores; }
    unsigned totalCores() const
    {
        return static_cast<unsigned>(_cores.size());
    }
    unsigned count(IsaKind isa) const
    {
        return _count[static_cast<size_t>(isa)];
    }

    /**
     * Modeled guest instructions per second of one @p isa core:
     * baseIpc * frequency. The server divides instruction counts by
     * this to report latency and throughput in modeled time.
     */
    double instsPerSecond(IsaKind isa) const;

    /** Aggregate modeled instructions per second of the whole CMP. */
    double aggregateInstsPerSecond() const;

    /** One-line human description, e.g. "2xRisc + 2xCisc". */
    std::string describe() const;

  private:
    CmpConfig _cfg;
    std::vector<CmpCore> _cores;
    unsigned _count[kNumIsas] = { 0, 0 };
};

} // namespace hipstr

#endif // HIPSTR_SERVER_CMP_MODEL_HH
