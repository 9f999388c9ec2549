/**
 * @file
 * Deterministic record/replay for the protected server and the
 * sharded fleet: one driver, with the standalone server as its K=1
 * case.
 *
 * A run is K shards (the server alone is one) whose workers and
 * cores are numbered into flat global spaces: shard k's pid p is
 * journaled as k * workers + p and its core c as k * cores + c, so
 * the server keeps its own ids. Recording wraps a normal run: a tap
 * journals every request drawn from the stream, a recording fault
 * plan per shard journals every firing, and per-worker coin logs
 * capture each diversification coin flip — all without perturbing
 * the run (the RNG streams are drawn exactly as they would be
 * un-recorded). At each round boundary the recorder emits a sync
 * signature and, for the server at a configurable cadence, a full
 * server checkpoint. Fleet journals carry no checkpoints.
 *
 * Replaying re-drives a run built from the same (FatBinary, config):
 * requests come from the journal, faults from journal-backed plans,
 * coin flips from per-worker feeds. Every round's sync signature is
 * compared against the recording and the first disagreement raises
 * ReplayErrc::Divergence — so a replay that completes is bit-exact,
 * not approximately similar. Windowed server replay restores the
 * nearest checkpoint at or before the requested round and re-drives
 * only the tail.
 */

#ifndef HIPSTR_REPLAY_RECORD_REPLAY_HH
#define HIPSTR_REPLAY_RECORD_REPLAY_HH

#include <string>

#include "fleet/fleet.hh"
#include "replay/journal.hh"

namespace hipstr
{
namespace replay
{

/**
 * Behavioural hash of a ServerConfig: every knob that affects what a
 * run does (pointer-valued observers — trace, metrics, tap — are
 * excluded). A journal records the hash of the config it was captured
 * under; replaying against a different one fails fast with
 * ConfigMismatch instead of diverging mysteriously mid-run.
 */
uint64_t serverConfigHash(const ServerConfig &cfg);

/**
 * Behavioural hash of a FleetConfig: every derived shard config's
 * serverConfigHash plus the balancer knobs (session count, ring
 * shape, queue bound, SLO, batch size, stealing). Observers —
 * trace/metrics/tap, keepOutcomes, metricsPrefix — and the
 * interleaving-only permuteShardStep knob are excluded: a journal
 * recorded with one shard-step order must replay under any other.
 */
uint64_t fleetConfigHash(const FleetConfig &cfg);

/** Recording knobs. */
struct RecordOptions
{
    /** Emit a full server checkpoint every N rounds (0 = only record,
     *  never checkpoint; windowed replay then always starts at round
     *  0). */
    uint64_t checkpointEveryRounds = 64;
};

/** What recordRun() produced. */
struct RecordResult
{
    ServerReport report;    ///< the run's normal report
    uint64_t rounds = 0;
    uint64_t journalBytes = 0;
    uint64_t requestsDrawn = 0;
    uint64_t checkpoints = 0;
};

/** What replayRun()/replayWindow() produced. */
struct ReplayResult
{
    ServerReport report;    ///< must equal the recorded run's report
    uint64_t rounds = 0;    ///< rounds executed by this replay
    uint64_t startRound = 0; ///< 0, or the restored checkpoint round
    uint64_t syncChecks = 0; ///< round signatures verified
};

/** What recordFleetRun() produced. */
struct FleetRecordResult
{
    FleetReport report; ///< identical to an un-recorded run's
    uint64_t rounds = 0;
    uint64_t journalBytes = 0;
    uint64_t requestsDrawn = 0;
};

/** What replayFleetRun() produced. */
struct FleetReplayResult
{
    FleetReport report; ///< must equal the recorded run's report
    uint64_t rounds = 0;
    uint64_t syncChecks = 0; ///< fleet round signatures verified
};

/**
 * Run the server to completion under recording, writing the journal
 * to @p path. The run itself is bit-identical to an un-recorded one
 * with the same (bin, cfg).
 */
RecordResult recordRun(const FatBinary &bin, const ServerConfig &cfg,
                       const std::string &path,
                       ThreadPool *pool = nullptr,
                       const RecordOptions &opts = RecordOptions{});

/**
 * Re-drive a recorded run from round 0 and verify it bit-exactly:
 * every round's sync signature and the final report signature must
 * match the journal. Throws ReplayError (ConfigMismatch, Divergence,
 * or any journal parse error).
 */
ReplayResult replayRun(const FatBinary &bin, const ServerConfig &cfg,
                       const std::string &path,
                       ThreadPool *pool = nullptr);

/**
 * Windowed replay: restore the nearest recorded checkpoint at or
 * before @p fromRound and re-drive from there to completion, with
 * the same bit-exact verification over the replayed window.
 */
ReplayResult replayWindow(const FatBinary &bin,
                          const ServerConfig &cfg,
                          const std::string &path, uint64_t fromRound,
                          ThreadPool *pool = nullptr);

/** recordRun() for a fleet (no checkpoints). */
FleetRecordResult recordFleetRun(const FatBinary &bin,
                                 const FleetConfig &cfg,
                                 const std::string &path,
                                 ThreadPool *pool = nullptr);

/** replayRun() for a fleet: always re-drives from round 0. */
FleetReplayResult replayFleetRun(const FatBinary &bin,
                                 const FleetConfig &cfg,
                                 const std::string &path,
                                 ThreadPool *pool = nullptr);

} // namespace replay
} // namespace hipstr

#endif // HIPSTR_REPLAY_RECORD_REPLAY_HH
