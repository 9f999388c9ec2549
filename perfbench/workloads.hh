/**
 * @file
 * The benchmark's four workloads. Each drives the system only through
 * its public entry points (buildWorkload/compileModule, loadFatBinary,
 * Interpreter::run, PsrVm::run, PsrTranslator::translate, the server's
 * stepwise loop, ProtectedFleet::run, recordRun and the replays), derives
 * every input from the benchmark seed, and checks its outputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/parallel.hh"
#include "trace.hh"

namespace perfbench
{

/** What every workload is handed. */
struct Inputs
{
    uint64_t seed = 1;
    /** Pool the workload runs on; the calling thread is one more job. */
    hipstr::ThreadPool *pool = nullptr;
    /** Directory for the journal files record/replay writes. */
    std::string scratchDir = ".";
};

/** One measured pass. Counts are deterministic for a given seed. */
struct PassResult
{
    /** Host seconds of the pass's measured calls. */
    double wallS = 0;
    /** Host seconds of the serving run (fleet/campaign: the whole
     *  pass; record_replay: the plain run; figure: the whole pass). */
    double servingS = 0;
    /** Operations completed in servingS: figure cells, or served
     *  requests. */
    uint64_t ops = 0;
    /** Guest instructions retired by PSR VMs in servingS. */
    uint64_t guestInsts = 0;
    /** Fold of every deterministic outcome of the pass. */
    uint64_t signature = 0;
    /** record_replay only: host seconds of each replay-layer call. @{ */
    double recordS = 0;
    double replayS = 0;
    double windowS = 0;
    /** @} */
};

class Workload
{
  public:
    explicit Workload(const Inputs &in) : _in(in) {}
    virtual ~Workload() = default;

    /** Run later passes on @p pool (the traced run's pool-width
     *  comparison). */
    void usePool(hipstr::ThreadPool *pool) { _in.pool = pool; }

    /** One line: what runs, at which size and seed. */
    virtual std::string describe() const = 0;

    /**
     * Everything before the first timed call: build and compile the
     * guest programs, reference checksums, and constructing the first
     * pass's server or fleet. Repeatable; each call replaces the last
     * call's state.
     */
    virtual void setup(Tracer *t) = 0;

    /**
     * One measured pass over the inputs setup() made. Output checks
     * go to @p ops. With a tracer, spans and counters are recorded
     * around the same calls.
     */
    virtual PassResult pass(Tracer *t, OpsLedger &ops) = 0;

    /** Traced run only, after the passes: the layer probes, on the
     *  same inputs. Results are tracer counters named like the
     *  per-layer metrics they feed. */
    virtual void probes(Tracer &t, OpsLedger &ops) = 0;

  protected:
    Inputs _in;
};

/**
 * The pool width a workload is measured at: min(4, hardware threads)
 * for figure, whose cells are long and independent; 1 for the serving
 * workloads. Their per-round fork/joins over a few short quanta make
 * host time at a wider pool depend mostly on how fast the machine
 * wakes idle CPUs, which varies from run to run on a shared machine;
 * the traced run measures the wider pool separately.
 */
unsigned workloadJobs(const std::string &name, unsigned hardwareThreads);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Inputs &in);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
