/**
 * @file
 * Quantum-based process scheduler for the heterogeneous-ISA CMP.
 *
 * Time advances in rounds: each round assigns every core at most one
 * Ready process of the core's ISA, runs all assigned processes for
 * one quantum concurrently (each process's state is private, so the
 * quanta are embarrassingly parallel), then folds the outcomes back
 * in fixed core order. A process whose quantum ended in a successful
 * security migration comes back with the opposite ISA affinity and is
 * simply requeued on the other queue — the paper's "move the program
 * to a core of the other ISA" is literally a requeue here. Crashed
 * processes are respawned through GuestProcess::respawn() (fresh
 * randomization, Section 5.3) up to a configurable limit.
 *
 * Determinism: assignment and merge order are pure functions of
 * (configuration, queue contents), queues change only in that fixed
 * order, and each quantum touches only process-private state — so a
 * server run is byte-identical for every HIPSTR_JOBS value.
 */

#ifndef HIPSTR_SERVER_SCHEDULER_HH
#define HIPSTR_SERVER_SCHEDULER_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "fault/plan.hh"
#include "server/cmp_model.hh"
#include "server/guest_process.hh"
#include "support/parallel.hh"
#include "telemetry/trace.hh"

namespace hipstr
{

/**
 * Supervision policy for crashed workers. The zero defaults reproduce
 * the legacy scheduler exactly: a crashed process is respawned in the
 * same merge step that observed the crash, no state is parked, no
 * counter moves — so a fault-free server is byte-identical to one
 * built before supervision existed.
 */
struct SupervisorConfig
{
    /**
     * First-crash respawn delay in scheduler rounds; each consecutive
     * crash doubles it (capped below). 0 = respawn immediately in the
     * observing round, the legacy behaviour.
     */
    uint32_t backoffBaseRounds = 0;

    /** Ceiling of the exponential backoff, in rounds. */
    uint32_t backoffCapRounds = 64;

    /**
     * Consecutive crashes (without an intervening clean quantum)
     * before the worker is quarantined — parked for quarantineRounds,
     * then respawned with fresh randomization and a cleared streak.
     * 0 = never quarantine.
     */
    uint32_t quarantineAfter = 0;

    /** Park length of a quarantine, in rounds. */
    uint32_t quarantineRounds = 64;
};

/** Scheduling knobs. */
struct SchedulerConfig
{
    /** Timeslice per core per round, in guest instructions. */
    uint64_t quantumInsts = 20'000;

    /**
     * Crash respawns allowed per process before it is retired;
     * 0 = unlimited (a production server keeps respawning its
     * workers — the limit exists for experiments).
     */
    uint32_t respawnLimit = 0;

    /** Crash-recovery policy (defaults = legacy immediate respawn). */
    SupervisorConfig supervisor;
};

/** Aggregate scheduler counters. */
struct SchedulerStats
{
    uint64_t rounds = 0;
    uint64_t quantaRun = 0;
    uint64_t idleCoreQuanta = 0; ///< core-rounds with no Ready process
    uint32_t migrationsRouted = 0; ///< requeues onto the other ISA
    uint32_t respawns = 0;
    uint32_t retired = 0; ///< processes past the respawn limit

    /** Fault-plan core outages (all zero without a plan). @{ */
    uint64_t offlineCoreQuanta = 0; ///< core-rounds lost to outages
    uint32_t coreOutages = 0;
    uint32_t coreRecoveries = 0;
    /** @} */

    /** Degraded single-ISA mode (an entire ISA offline). @{ */
    uint32_t degradedEntries = 0;
    uint32_t degradedExits = 0;
    uint64_t degradedRounds = 0;
    uint32_t reroutes = 0;        ///< live evacuations off a dead ISA
    uint32_t rerouteRespawns = 0; ///< evacuations that hard-respawned
    /** @} */

    /** Supervisor (infirmary) activity. @{ */
    uint32_t quarantines = 0;
    uint32_t recoveries = 0; ///< infirmary releases back to service
    uint64_t recoveryRoundsSum = 0; ///< crash→release round gaps
    /** @} */

    /** Checkpoint field walk (support/serialize.hh). */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &s)
    {
        io.u64(s.rounds);
        io.u64(s.quantaRun);
        io.u64(s.idleCoreQuanta);
        io.u32(s.migrationsRouted);
        io.u32(s.respawns);
        io.u32(s.retired);
        io.u64(s.offlineCoreQuanta);
        io.u32(s.coreOutages);
        io.u32(s.coreRecoveries);
        io.u32(s.degradedEntries);
        io.u32(s.degradedExits);
        io.u64(s.degradedRounds);
        io.u32(s.reroutes);
        io.u32(s.rerouteRespawns);
        io.u32(s.quarantines);
        io.u32(s.recoveries);
        io.u64(s.recoveryRoundsSum);
    }
};

/** The scheduler. Processes are owned by the caller. */
class CmpScheduler
{
  public:
    CmpScheduler(const CmpModel &cmp, const SchedulerConfig &cfg);

    /**
     * Optional structured-trace sink (TraceCategory::Scheduler:
     * per-core quantum spans, respawns, retirements, migration
     * routing). Events are recorded from the *sequential* merge
     * section in fixed core order, on the modeled timeline (rounds
     * through the CMP's aggregate rate), so a trace is as
     * reproducible as the schedule itself.
     */
    telemetry::TraceBuffer *trace = nullptr;

    /**
     * Deterministic fault plan, or nullptr (the default) for the
     * fault-free scheduler. When set, each round first consults the
     * plan for core outages — an offline core is skipped at
     * assignment (offlineCoreQuanta) until its scheduled recovery —
     * and an ISA whose cores are all offline puts the server in
     * degraded mode: migration is suspended on every worker, workers
     * stranded on the dead ISA's queue are evacuated, and dual-ISA
     * protection resumes when the outage ends.
     */
    const FaultPlan *faultPlan = nullptr;

    /**
     * Make a Ready process schedulable. Must be called once per
     * Ready transition the scheduler did not make itself (i.e. after
     * GuestProcess::beginService); a process must never be enqueued
     * twice.
     */
    void notifyReady(GuestProcess *p);

    /**
     * Run one round: one quantum on every core that has a matching
     * Ready process. Quanta execute concurrently on @p pool (the
     * global pool when null). Returns the number of quanta run — 0
     * means every queue was empty.
     */
    unsigned round(ThreadPool *pool = nullptr);

    /** True when no process is queued on either ISA. */
    bool idle() const;

    const SchedulerStats &stats() const { return _stats; }
    const SchedulerConfig &config() const { return _cfg; }

    /** Processes retired after exceeding the respawn limit. */
    const std::vector<GuestProcess *> &retired() const
    {
        return _retired;
    }

    /** True when @p p has been permanently retired (vs. merely parked
     *  Crashed in the infirmary awaiting its respawn round). */
    bool isRetired(const GuestProcess *p) const;

    /** True while any crashed worker is parked awaiting respawn. */
    bool hasConvalescents() const { return !_infirmary.empty(); }

    /** Crashed workers parked awaiting respawn — the fleet balancer's
     *  respawn-storm signal (src/fleet). */
    size_t convalescentCount() const { return _infirmary.size(); }

    /** Core/ISA availability under the fault plan. @{ */
    bool coreOnline(unsigned coreId) const;
    bool isaOffline(IsaKind isa) const
    {
        return _isaOffline[static_cast<size_t>(isa)];
    }
    /** Degraded mode: at least one entire ISA is offline. */
    bool degraded() const
    {
        return _isaOffline[0] || _isaOffline[1];
    }
    /** @} */

    /**
     * Checkpoint the scheduler: queue contents (as pids), stats,
     * outage state, infirmary and crash streaks. Restore requires a
     * scheduler over the identical CmpModel/config plus a @p resolve
     * function mapping a pid back to its (already restored)
     * GuestProcess. faultPlan/trace wiring is the caller's. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r,
                   const std::function<GuestProcess *(uint32_t)>
                       &resolve);
    /** @} */

    /** Mean crash→release gap of infirmary recoveries, in rounds. */
    double meanRoundsToRecover() const
    {
        return _stats.recoveries == 0
            ? 0.0
            : double(_stats.recoveryRoundsSum) / _stats.recoveries;
    }

  private:
    /** A crashed worker parked for a later respawn round. */
    struct Convalescent
    {
        GuestProcess *p;
        uint64_t crashRound;
        uint64_t releaseRound;
        bool quarantined;
    };

    /** Checkpoint field walk after the core count: outage state,
     *  infirmary and streaks (support/serialize.hh). */
    template <class Io, class Self>
    static void fields(Io &io, Self &s);

    /**
     * Fault supervision, run once at the head of every round while a
     * plan is attached or workers are parked: advance core outages,
     * track degraded mode, evacuate stranded queues, and release due
     * convalescents. Everything iterates in fixed (core id / pid)
     * order, so supervision is as deterministic as the schedule.
     */
    void superviseRound(bool traced, double round_ts);

    /**
     * Handle a crash observed in the merge step: retire past the
     * respawn limit, quarantine past the streak limit, park with
     * exponential backoff, or — with supervision disabled — respawn
     * immediately (the legacy path). Returns true iff the process was
     * respawned in place and is runnable again this round.
     */
    bool superviseCrash(GuestProcess *p, unsigned coreId,
                        double round_ts, bool traced);

    const CmpModel &_cmp;
    SchedulerConfig _cfg;
    double _usPerRound = 0; ///< modeled microseconds per round
    std::array<std::deque<GuestProcess *>, kNumIsas> _ready;
    std::vector<GuestProcess *> _retired;
    SchedulerStats _stats;

    /** Round the core comes back (0 = online); indexed by core id. */
    std::vector<uint64_t> _coreOfflineUntil;
    std::array<bool, kNumIsas> _isaOffline{};
    /** Parked crashed workers, keyed by pid for deterministic order. */
    std::map<uint32_t, Convalescent> _infirmary;
    /** Consecutive-crash streaks, keyed by pid. */
    std::map<uint32_t, uint32_t> _streak;
};

} // namespace hipstr

#endif // HIPSTR_SERVER_SCHEDULER_HH
