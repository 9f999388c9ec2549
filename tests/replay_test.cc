/**
 * @file
 * Tests for the record/replay subsystem: journal round trips,
 * bit-exact replay (full and windowed) of server and fleet runs, the
 * typed rejection of damaged journals, the checked-in journal
 * fixtures that pin the wire format, guest-process checkpoint round
 * trips across every workload/ISA/seed combination, and the TCP
 * introspection server's line protocol.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "binary/loader.hh"
#include "replay/introspect.hh"
#include "replay/record_replay.hh"
#include "support/random.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::test;
using namespace hipstr::replay;

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

/** Small attack-bearing server configuration (fault-free). */
ServerConfig
smallConfig()
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 60;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 0.5;
    return cfg;
}

/** Chaos configuration: faults + scripted ISA outage. */
ServerConfig
chaosConfig()
{
    ServerConfig cfg = smallConfig();
    cfg.requestCount = 80;
    cfg.faults.enabled = true;
    cfg.faults.seed = cfg.seed;
    cfg.faults.quantumFaultRate = 0.01;
    cfg.faults.coreFailRate = 0.002;
    cfg.faults.scriptedOutageIsa = IsaKind::Risc;
    cfg.faults.scriptedOutageRound = 20;
    cfg.faults.scriptedOutageRounds = 15;
    cfg.watchdogQuanta = 3;
    cfg.sched.supervisor.backoffBaseRounds = 2;
    return cfg;
}

/** Two-shard fleet under faults, attacks and a scripted RISC outage:
 *  small enough for the smoke tier, busy enough that both shards fire
 *  faults and outages and draw coins. */
FleetConfig
smallFleetConfig()
{
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.requestCount = 120;
    cfg.sessions = 16;
    cfg.batchSize = 8;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.server.workers = 3;
    cfg.server.hipstr.diversificationProbability = 0.5;
    cfg.server.watchdogQuanta = 3;
    cfg.server.sched.supervisor.backoffBaseRounds = 2;
    cfg.server.faults.enabled = true;
    cfg.server.faults.quantumFaultRate = 0.02;
    cfg.server.faults.coreFailRate = 0.01;
    cfg.server.faults.scriptedOutageIsa = IsaKind::Risc;
    cfg.server.faults.scriptedOutageRound = 10;
    cfg.server.faults.scriptedOutageRounds = 5;
    return cfg;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A checked-in journal under tests/fixtures/journals. */
std::string
fixturePath(const std::string &name)
{
    return std::string(HIPSTR_FIXTURE_DIR) + "/journals/" + name;
}

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::vector<uint8_t> bytes;
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "cannot open " << path;
    if (f == nullptr)
        return bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Length of the record at @p off (its payload, not the 5-byte
 *  tag/length head). */
uint32_t
recordLen(const std::vector<uint8_t> &bytes, size_t off)
{
    return uint32_t(bytes[off + 1]) | (uint32_t(bytes[off + 2]) << 8) |
        (uint32_t(bytes[off + 3]) << 16) |
        (uint32_t(bytes[off + 4]) << 24);
}

/** Byte offset of every record (after the header), in file order. */
std::vector<size_t>
allRecordOffsets(const std::vector<uint8_t> &bytes)
{
    std::vector<size_t> offs;
    size_t off = 8 + 4 + 8; // magic, version, configHash
    while (off + 5 <= bytes.size()) {
        offs.push_back(off);
        off += 5 + recordLen(bytes, off);
    }
    return offs;
}

/** Byte offsets of every record with @p tag (after the header). */
std::vector<size_t>
recordOffsets(const std::vector<uint8_t> &bytes, RecordTag tag)
{
    std::vector<size_t> offs;
    for (size_t off : allRecordOffsets(bytes)) {
        if (bytes[off] == static_cast<uint8_t>(tag))
            offs.push_back(off);
    }
    return offs;
}

/** Byte offset of the first record with @p tag, or SIZE_MAX. */
size_t
findRecord(const std::vector<uint8_t> &bytes, RecordTag tag)
{
    std::vector<size_t> offs = recordOffsets(bytes, tag);
    return offs.empty() ? SIZE_MAX : offs.front();
}

/** @p bytes without its last Coin record: the worker that drew that
 *  flip runs out of recorded coins on replay. */
std::vector<uint8_t>
dropLastCoin(const std::vector<uint8_t> &bytes)
{
    std::vector<size_t> coins = recordOffsets(bytes, RecordTag::Coin);
    EXPECT_FALSE(coins.empty()) << "journal drew no coins";
    if (coins.empty())
        return bytes;
    size_t off = coins.back();
    std::vector<uint8_t> out = bytes;
    out.erase(out.begin() + off,
              out.begin() + off + 5 + recordLen(bytes, off));
    return out;
}

/** The ReplayError @p fn throws (an Io error if it throws none). */
ReplayError
replayErrorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const ReplayError &e) {
        return e;
    }
    ADD_FAILURE() << "expected a ReplayError";
    return ReplayError(ReplayErrc::Io, "none thrown");
}

/** First byte offset where @p a and @p b differ (the shorter length
 *  if one is a prefix of the other), or SIZE_MAX if equal. */
size_t
firstDiff(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return a.size() == b.size() ? SIZE_MAX : n;
}

ReplayErrc
replayErrcOf(const std::function<void()> &fn)
{
    return replayErrorOf(fn).code();
}

/** What parsing gives: nothing when @p fn parses, else the code of
 *  the ReplayError it throws. Any other exception escapes the test. */
std::optional<ReplayErrc>
parseOutcome(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const ReplayError &e) {
        return e.code();
    }
    return std::nullopt;
}

/** Parse @p bytes with both overloads, in memory and from a file on
 *  disk, and require the two outcomes to agree. */
std::optional<ReplayErrc>
parseBoth(const std::vector<uint8_t> &bytes)
{
    std::optional<ReplayErrc> mem =
        parseOutcome([&] { parseJournal(bytes); });
    std::string path = tempPath("replay_parse_both.hjl");
    spit(path, bytes);
    std::optional<ReplayErrc> file =
        parseOutcome([&] { parseJournal(path); });
    EXPECT_EQ(mem, file) << "the two parseJournal overloads disagree";
    return mem;
}

/** A small checkpointed server journal: two fault-free workers, a
 *  dozen requests, a checkpoint every four rounds. */
const std::vector<uint8_t> &
smallCheckpointedJournal()
{
    static const std::vector<uint8_t> bytes = [] {
        ServerConfig cfg = smallConfig();
        cfg.workers = 2;
        cfg.requestCount = 12;
        RecordOptions opts;
        opts.checkpointEveryRounds = 4;
        std::string path = tempPath("replay_small_checkpointed.hjl");
        RecordResult rec =
            recordRun(httpdBin(), cfg, path, nullptr, opts);
        EXPECT_GT(rec.checkpoints, 1u);
        return slurp(path);
    }();
    return bytes;
}

/** Overwrite the payload of every Checkpoint record in @p bytes with
 *  garbage, except the one for round @p keep (0 = keep none). The
 *  round and length fields stay, so the journal still parses. */
void
garbleCheckpoints(std::vector<uint8_t> &bytes, uint64_t keep)
{
    for (size_t off : recordOffsets(bytes, RecordTag::Checkpoint)) {
        uint64_t round = 0;
        for (int i = 7; i >= 0; --i)
            round = (round << 8) | bytes[off + 5 + i];
        if (round == keep)
            continue;
        size_t payload = off + 5 + 12; // past round u64, length u32
        std::fill(bytes.begin() + payload,
                  bytes.begin() + off + 5 + recordLen(bytes, off),
                  uint8_t(0xa5));
    }
}

} // namespace

// A recorded run replays bit-exactly: every round's sync signature
// verifies and the final report is identical.
TEST(Replay, RecordThenReplayBitExact)
{
    ServerConfig cfg = smallConfig();
    std::string path = tempPath("replay_clean.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_EQ(rec.report.requestsServed, cfg.requestCount);
    EXPECT_GT(rec.journalBytes, 0u);

    ReplayResult rep = replayRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.requestsServed, rec.report.requestsServed);
    EXPECT_EQ(rep.report.migrations, rec.report.migrations);
    EXPECT_EQ(rep.report.securityEvents, rec.report.securityEvents);
    EXPECT_EQ(rep.report.totalGuestInsts, rec.report.totalGuestInsts);
    EXPECT_EQ(rep.syncChecks, rec.rounds);
    EXPECT_EQ(rep.startRound, 0u);
}

// Recording must not perturb the run: a recorded run's report is
// byte-identical to a plain run of the same configuration.
TEST(Replay, RecordingIsZeroPerturbation)
{
    ServerConfig cfg = smallConfig();
    ProtectedServer plain(httpdBin(), cfg);
    ServerReport base = plain.run();

    std::string path = tempPath("replay_perturb.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_EQ(rec.report.signature, base.signature);
    EXPECT_EQ(rec.report.rounds, base.rounds);
    EXPECT_EQ(rec.report.totalGuestInsts, base.totalGuestInsts);
}

// A chaos run — transient faults, core outages, a scripted full-ISA
// outage window, watchdog kills — records and replays bit-exactly.
TEST(Replay, RecordedChaosRunReplaysBitExact)
{
    ServerConfig cfg = chaosConfig();
    std::string path = tempPath("replay_chaos.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_GT(rec.report.faultsInjectedTotal, 0u);

    ReplayResult rep = replayRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.faultsInjectedTotal,
              rec.report.faultsInjectedTotal);
    EXPECT_EQ(rep.report.degradedRounds, rec.report.degradedRounds);
    EXPECT_EQ(rep.report.crashes, rec.report.crashes);
}

// Windowed replay restores a mid-run checkpoint and re-drives only
// the tail, still landing on the identical final report.
TEST(Replay, WindowedReplayFromMidRunSyncPoint)
{
    ServerConfig cfg = chaosConfig();
    std::string path = tempPath("replay_window.hjl");
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    RecordResult rec = recordRun(httpdBin(), cfg, path, nullptr, opts);
    ASSERT_GT(rec.checkpoints, 1u);

    uint64_t mid = rec.rounds / 2;
    ReplayResult rep = replayWindow(httpdBin(), cfg, path, mid);
    EXPECT_GT(rep.startRound, 0u);
    EXPECT_LE(rep.startRound, mid);
    EXPECT_LT(rep.rounds, rec.rounds);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.requestsServed, rec.report.requestsServed);
}

// Damaged journals fail fast with the right typed error, the same
// from a file on disk as from memory.
TEST(Replay, DamagedJournalsRejectedWithTypedErrors)
{
    ServerConfig cfg = smallConfig();
    std::string path = tempPath("replay_damage.hjl");
    recordRun(httpdBin(), cfg, path);
    std::vector<uint8_t> good = slurp(path);
    ASSERT_GT(good.size(), 40u);
    EXPECT_EQ(parseBoth(good), std::nullopt);

    // Truncated: lop off the End record and change nothing else.
    {
        std::vector<uint8_t> bad(good.begin(), good.end() - 10);
        EXPECT_EQ(parseBoth(bad), ReplayErrc::Truncated);
    }
    // Bad magic.
    {
        std::vector<uint8_t> bad = good;
        bad[0] ^= 0xff;
        EXPECT_EQ(parseBoth(bad), ReplayErrc::BadMagic);
    }
    // Bad version.
    {
        std::vector<uint8_t> bad = good;
        bad[8] += 1;
        EXPECT_EQ(parseBoth(bad), ReplayErrc::BadVersion);
    }
    // Unknown record tag.
    {
        std::vector<uint8_t> bad = good;
        size_t off = findRecord(bad, RecordTag::Sync);
        ASSERT_NE(off, SIZE_MAX);
        bad[off] = 0xee;
        EXPECT_EQ(parseBoth(bad), ReplayErrc::Corrupt);
    }
    const std::vector<uint8_t> &cp = smallCheckpointedJournal();
    EXPECT_EQ(parseBoth(cp), std::nullopt);
    size_t cpOff = findRecord(cp, RecordTag::Checkpoint);
    ASSERT_NE(cpOff, SIZE_MAX);
    ASSERT_GT(recordLen(cp, cpOff), 12u + 100u);
    // Truncated inside a checkpoint payload.
    {
        std::vector<uint8_t> bad(cp.begin(),
                                 cp.begin() + cpOff + 5 + 12 + 100);
        EXPECT_EQ(parseBoth(bad), ReplayErrc::Truncated);
    }
    // A checkpoint length field that disagrees with its record's.
    {
        std::vector<uint8_t> bad = cp;
        bad[cpOff + 5 + 8] -= 1; // low byte of the payload length
        EXPECT_EQ(parseBoth(bad), ReplayErrc::Corrupt);
    }
    // Cut at every record boundary: each prefix ends without End.
    for (size_t off : allRecordOffsets(cp)) {
        std::vector<uint8_t> bad(cp.begin(), cp.begin() + off);
        EXPECT_EQ(parseBoth(bad), ReplayErrc::Truncated)
            << "cut at byte " << off;
    }
    // Config mismatch: same journal, different server seed.
    {
        ServerConfig other = cfg;
        other.seed += 1;
        EXPECT_EQ(replayErrcOf([&] {
                      replayRun(httpdBin(), other, path);
                  }),
                  ReplayErrc::ConfigMismatch);
    }
    // A flipped sync signature parses fine but diverges on replay.
    {
        std::vector<uint8_t> bad = good;
        size_t off = findRecord(bad, RecordTag::Sync);
        ASSERT_NE(off, SIZE_MAX);
        bad[off + 5 + 8] ^= 0x01; // first byte of the signature
        std::string badPath = tempPath("replay_damage_sync.hjl");
        spit(badPath, bad);
        EXPECT_EQ(replayErrcOf([&] {
                      replayRun(httpdBin(), cfg, badPath);
                  }),
                  ReplayErrc::Divergence);
    }
    // One Coin record missing: a worker runs out of recorded flips.
    {
        std::string badPath = tempPath("replay_damage_coin.hjl");
        spit(badPath, dropLastCoin(good));
        ReplayError e = replayErrorOf([&] {
            replayRun(httpdBin(), cfg, badPath);
        });
        EXPECT_EQ(e.code(), ReplayErrc::Divergence);
        EXPECT_NE(std::string(e.what()).find(
                      "drew more coins than were recorded"),
                  std::string::npos)
            << e.what();
    }
}

// Replay reads only the checkpoint it restores: garbage in every
// other checkpoint payload changes nothing, and garbage in the
// restored one fails as Corrupt.
TEST(Replay, WindowReadsOnlyTheCheckpointItRestores)
{
    ServerConfig cfg = chaosConfig();
    std::string path = tempPath("replay_only_window.hjl");
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    RecordResult rec = recordRun(httpdBin(), cfg, path, nullptr, opts);
    ASSERT_GT(rec.checkpoints, 2u);
    uint64_t mid = rec.rounds / 2;
    uint64_t window = mid / 8 * 8;
    ASSERT_GT(window, 0u);

    std::vector<uint8_t> others = slurp(path);
    garbleCheckpoints(others, window);
    std::string othersPath = tempPath("replay_only_window_others.hjl");
    spit(othersPath, others);
    ReplayResult full = replayRun(httpdBin(), cfg, othersPath);
    EXPECT_EQ(full.report.signature, rec.report.signature);
    ReplayResult win = replayWindow(httpdBin(), cfg, othersPath, mid);
    EXPECT_EQ(win.startRound, window);
    EXPECT_EQ(win.report.signature, rec.report.signature);
    EXPECT_EQ(win.report.requestsServed, rec.report.requestsServed);

    std::vector<uint8_t> all = slurp(path);
    garbleCheckpoints(all, 0);
    std::string allPath = tempPath("replay_only_window_all.hjl");
    spit(allPath, all);
    full = replayRun(httpdBin(), cfg, allPath);
    EXPECT_EQ(full.report.signature, rec.report.signature);
    ReplayError e = replayErrorOf([&] {
        replayWindow(httpdBin(), cfg, allPath, mid);
    });
    EXPECT_EQ(e.code(), ReplayErrc::Corrupt);
    EXPECT_NE(std::string(e.what()).find("checkpoint unusable"),
              std::string::npos)
        << e.what();
}

// Seeded journal fuzz: random truncations and bit flips of a small
// checkpointed journal either parse or throw a typed ReplayError —
// the same one from memory and from a file — and never crash.
TEST(Replay, JournalFuzzParsesOrThrowsTyped)
{
    const std::vector<uint8_t> &good = smallCheckpointedJournal();
    std::vector<size_t> heads = allRecordOffsets(good);
    ASSERT_FALSE(heads.empty());
    Rng rng(0x6a6f75726e616cull);
    std::map<std::optional<ReplayErrc>, unsigned> seen;
    for (int iter = 0; iter < 400; ++iter) {
        std::vector<uint8_t> bad = good;
        unsigned flips = unsigned(rng.below(4));
        for (unsigned i = 0; i < flips; ++i) {
            // Half the flips land in a record's tag/length head, where
            // the parser's framing checks live.
            size_t at = rng.chance(0.5)
                ? rng.pick(heads) + size_t(rng.below(5))
                : size_t(rng.below(bad.size()));
            bad[at] ^= uint8_t(1u << rng.below(8));
        }
        if (flips == 0 || rng.chance(0.3))
            bad.resize(size_t(rng.below(bad.size() + 1)));
        ++seen[parseBoth(bad)];
    }
    // The mix reached every outcome the damage can cause.
    EXPECT_GT(seen[std::nullopt], 0u);
    EXPECT_GT(seen[ReplayErrc::Truncated], 0u);
    EXPECT_GT(seen[ReplayErrc::Corrupt], 0u);
}

// A small fleet records and replays bit-exactly, and its journal
// fails fast with typed errors when damaged or replayed against the
// wrong kind of run.
TEST(Replay, FleetRecordReplayAndDamagedJournals)
{
    FleetConfig cfg = smallFleetConfig();
    cfg.server.faults.enabled = false;
    std::string path = tempPath("replay_fleet.hjl");
    FleetRecordResult rec = recordFleetRun(httpdBin(), cfg, path);
    EXPECT_EQ(rec.report.requestsServed, cfg.requestCount);
    EXPECT_EQ(rec.requestsDrawn, cfg.requestCount);

    FleetReplayResult rep = replayFleetRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.outcomeSetSignature,
              rec.report.outcomeSetSignature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.syncChecks, rec.rounds);
    std::vector<uint8_t> good = slurp(path);

    // A server journal is not a fleet journal.
    {
        std::string serverPath = tempPath("replay_fleet_server.hjl");
        recordRun(httpdBin(), smallConfig(), serverPath);
        EXPECT_EQ(replayErrcOf([&] {
                      replayFleetRun(httpdBin(), cfg, serverPath);
                  }),
                  ReplayErrc::ConfigMismatch);
    }
    // A flipped fleet sync signature diverges on replay.
    {
        std::vector<uint8_t> bad = good;
        size_t off = findRecord(bad, RecordTag::Sync);
        ASSERT_NE(off, SIZE_MAX);
        bad[off + 5 + 8] ^= 0x01; // first byte of the signature
        std::string badPath = tempPath("replay_fleet_sync.hjl");
        spit(badPath, bad);
        EXPECT_EQ(replayErrcOf([&] {
                      replayFleetRun(httpdBin(), cfg, badPath);
                  }),
                  ReplayErrc::Divergence);
    }
    // One Coin record missing: a shard worker runs out of flips.
    {
        std::string badPath = tempPath("replay_fleet_coin.hjl");
        spit(badPath, dropLastCoin(good));
        ReplayError e = replayErrorOf([&] {
            replayFleetRun(httpdBin(), cfg, badPath);
        });
        EXPECT_EQ(e.code(), ReplayErrc::Divergence);
        EXPECT_NE(std::string(e.what()).find(
                      "drew more coins than were recorded"),
                  std::string::npos)
            << e.what();
    }
}

// The checked-in journals pin the wire format. Each replays
// bit-exactly, and re-recording its configuration reproduces it byte
// for byte: record order, pid/core rebasing and the config hash.
TEST(Replay, ServerJournalFixtureReplaysAndReRecords)
{
    ServerConfig cfg = chaosConfig();
    RecordOptions opts;
    opts.checkpointEveryRounds = 0;
    std::string path = tempPath("fixture_server_chaos.hjl");
    recordRun(httpdBin(), cfg, path, nullptr, opts);

    const std::string fixture = fixturePath("server_chaos.hjl");
    std::vector<uint8_t> fresh = slurp(path);
    std::vector<uint8_t> pinned = slurp(fixture);
    EXPECT_TRUE(fresh == pinned)
        << "re-recorded journal differs from " << fixture
        << " at byte " << firstDiff(fresh, pinned);

    ReplayResult rep = replayRun(httpdBin(), cfg, fixture);
    Journal j = parseJournal(fixture);
    EXPECT_EQ(rep.report.signature, j.endSignature);
    EXPECT_EQ(rep.syncChecks, j.endRounds);
    EXPECT_FALSE(j.faults.empty());
    EXPECT_FALSE(j.outages.empty());
}

TEST(Replay, FleetJournalFixtureReplaysAndReRecords)
{
    FleetConfig cfg = smallFleetConfig();
    std::string path = tempPath("fixture_fleet_faults.hjl");
    recordFleetRun(httpdBin(), cfg, path);

    const std::string fixture = fixturePath("fleet_faults.hjl");
    std::vector<uint8_t> fresh = slurp(path);
    std::vector<uint8_t> pinned = slurp(fixture);
    EXPECT_TRUE(fresh == pinned)
        << "re-recorded journal differs from " << fixture
        << " at byte " << firstDiff(fresh, pinned);

    FleetReplayResult rep = replayFleetRun(httpdBin(), cfg, fixture);
    Journal j = parseJournal(fixture);
    EXPECT_EQ(rep.report.signature, j.endSignature);
    EXPECT_EQ(rep.syncChecks, j.endRounds);
    // Shard 1's firings carry rebased global ids.
    const uint32_t W = cfg.server.workers;
    const uint32_t C =
        cfg.server.cmp.riscCores + cfg.server.cmp.ciscCores;
    bool shard1Fault = false, shard1Outage = false;
    for (const auto &kv : j.faults)
        shard1Fault = shard1Fault || kv.first.first >= W;
    for (const auto &kv : j.outages)
        shard1Outage = shard1Outage || kv.first.first >= C;
    EXPECT_TRUE(shard1Fault);
    EXPECT_TRUE(shard1Outage);
}

/** Two-worker chaos server checkpointed twice: the configuration
 *  behind the checked-in server_checkpointed.hjl, the one fixture
 *  that pins checkpoint bytes. A checkpoint saves the VM's trace and
 *  chain follow counts, whose split depends on whether the trace JIT
 *  runs, so the JIT is off here: the bytes are then the same in
 *  every build, the sanitizer ones included. */
ServerConfig
checkpointedConfig()
{
    ServerConfig cfg = chaosConfig();
    cfg.workers = 2;
    cfg.requestCount = 40;
    cfg.faults.quantumFaultRate = 0.05;
    cfg.hipstr.psr.jitMode = PsrConfig::JitMode::Off;
    return cfg;
}

RecordOptions
checkpointedOptions()
{
    RecordOptions opts;
    opts.checkpointEveryRounds = 25;
    return opts;
}

// The checkpointed fixture pins every checkpointed field's order and
// width: re-recording reproduces it byte for byte, it replays from
// round 0, and a window restored from each of its checkpoints lands
// on the recorded report.
TEST(Replay, CheckpointedJournalFixtureReplaysAndReRecords)
{
    ServerConfig cfg = checkpointedConfig();
    std::string path = tempPath("fixture_server_checkpointed.hjl");
    recordRun(httpdBin(), cfg, path, nullptr, checkpointedOptions());

    const std::string fixture = fixturePath("server_checkpointed.hjl");
    std::vector<uint8_t> fresh = slurp(path);
    std::vector<uint8_t> pinned = slurp(fixture);
    EXPECT_TRUE(fresh == pinned)
        << "re-recorded journal differs from " << fixture
        << " at byte " << firstDiff(fresh, pinned);

    Journal j = parseJournal(fixture);
    ReplayResult rep = replayRun(httpdBin(), cfg, fixture);
    EXPECT_EQ(rep.report.signature, j.endSignature);
    EXPECT_EQ(rep.syncChecks, j.endRounds);
    EXPECT_FALSE(j.faults.empty());

    std::vector<uint64_t> checkpointed;
    for (const auto &kv : j.rounds)
        if (kv.second.checkpointBytes != 0)
            checkpointed.push_back(kv.first);
    ASSERT_GE(checkpointed.size(), 1u);
    ASSERT_LE(checkpointed.size(), 2u);
    for (uint64_t round : checkpointed) {
        ReplayResult win = replayWindow(httpdBin(), cfg, fixture, round);
        EXPECT_EQ(win.startRound, round);
        EXPECT_EQ(win.report.signature, j.endSignature) << round;
        EXPECT_EQ(win.report.requestsServed, j.endServed) << round;
    }
}

// Checkpoint round-trip property: for every workload, both start
// ISAs, and eight seeds, a GuestProcess snapshotted at a
// pseudo-random quantum and restored into a fresh process continues
// byte-identically — same lifecycle states, same stats signature,
// same retained-output checksum, same machine state — while its
// translation caches rebuild cold.
TEST(Checkpoint, GuestProcessRoundTripEveryWorkloadIsaSeed)
{
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    Rng pick(0xc0ffee);
    for (const std::string &name : allWorkloadNames()) {
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : { IsaKind::Risc, IsaKind::Cisc }) {
            for (uint64_t seed = 0; seed < 8; ++seed) {
                GuestProcessConfig cfg;
                cfg.pid = uint32_t(seed);
                cfg.seed = 0x5eed00 + seed;
                cfg.alternateStartIsa = false;
                cfg.hipstr.startIsa = isa;
                // Phase migrations force cross-ISA state (RAT,
                // relocation maps, both VMs) into the checkpoint.
                cfg.hipstr.phaseIntervalInsts = 30'000;

                GuestProcess a(bin, cfg);
                a.beginService(120'000);
                uint64_t snapAt = 1 + pick.below(4);
                ByteWriter snap;
                uint64_t q = 0;
                while (a.state() == ProcState::Ready) {
                    if (q == snapAt)
                        a.saveState(snap);
                    a.runQuantum(20'000);
                    ++q;
                }
                ASSERT_GT(q, snapAt)
                    << name << " finished before the snapshot";

                GuestProcess b(bin, cfg);
                ByteReader r(snap.data());
                b.loadState(r);
                EXPECT_TRUE(r.atEnd());
                while (b.state() == ProcState::Ready)
                    b.runQuantum(20'000);

                EXPECT_EQ(a.state(), b.state())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.statsSignature(), b.statsSignature())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.os().outputChecksum(),
                          b.os().outputChecksum())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.isa(), b.isa());
                const MachineState &sa =
                    a.runtime().vm(a.isa()).state;
                const MachineState &sb =
                    b.runtime().vm(b.isa()).state;
                EXPECT_EQ(sa.pc, sb.pc);
                EXPECT_EQ(sa.regs, sb.regs);
                EXPECT_EQ(a.serviceRemaining(),
                          b.serviceRemaining());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint loading refuses every value no writer produces, and
// checks each count against the bytes left before sizing anything.
// The byte offsets below follow the field walks' image order; each
// test first checks the byte it damages holds the value a fresh
// object writes there, so a moved field fails loudly.
// ---------------------------------------------------------------------

/** HipstrRuntime image: current and start ISA, then (after the policy
 *  RNG, four flags and the log cursor) the run summary's stop
 *  reason, fault kind, fault ISA and migration-log count. */
constexpr size_t kRtCurrent = 0, kRtStartIsa = 1, kRtReason = 46,
                 kRtFaultKind = 99, kRtFaultIsa = 104, kRtLogCount = 109;
/** GuestProcess image: lifecycle state, last fault kind and ISA, the
 *  pending fault kind, then the GuestOs image. */
constexpr size_t kProcState = 4, kProcFaultKind = 220,
                 kProcFaultIsa = 225, kProcPending = 230, kProcOs = 231;
/** GuestOs image: retained-output length. */
constexpr size_t kOsOutputCount = 39;
/** PsrVm image: its Randomizer image. */
constexpr size_t kVmRandomizer = 242;
/** Randomizer image: map count, then the first map. */
constexpr size_t kRzMapCount = 88, kRzFirstMap = 92;
/** RelocationMap image: ISA, register map, slot count; argRegs and
 *  retReg follow the slots (kMapArgRegs + 8 * slots). */
constexpr size_t kMapIsa = 4, kMapRegMap = 5, kMapSlotCount = 85,
                 kMapArgRegs = 97;

std::vector<uint8_t>
imageOf(const std::function<void(ByteWriter &)> &save)
{
    ByteWriter w;
    save(w);
    return w.data();
}

uint32_t
u32At(const std::vector<uint8_t> &b, size_t off)
{
    ByteReader r(b.data() + off, 4);
    return r.u32();
}

std::vector<uint8_t>
withU32(std::vector<uint8_t> b, size_t off, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[off + i] = uint8_t(v >> (8 * i));
    return b;
}

std::vector<uint8_t>
withByte(std::vector<uint8_t> b, size_t off, uint8_t v)
{
    b[off] = v;
    return b;
}

/** What loading @p image with @p load gives: nothing if it loads,
 *  else the SerializeError code. */
std::optional<SerializeErrc>
loadOutcome(const std::vector<uint8_t> &image,
            const std::function<void(ByteReader &)> &load)
{
    try {
        ByteReader r(image);
        load(r);
    } catch (const SerializeError &e) {
        return e.code();
    }
    return std::nullopt;
}

/** A standalone runtime over httpd, as a worker holds one. */
struct RuntimeRig
{
    Memory mem;
    GuestOs os;
    HipstrRuntime rt{ httpdBin(), mem, os, HipstrConfig{} };

    std::optional<SerializeErrc>
    load(const std::vector<uint8_t> &image)
    {
        return loadOutcome(image, [&](ByteReader &r) { rt.loadState(r); });
    }
};

std::vector<uint8_t>
runtimeImage()
{
    RuntimeRig a;
    return imageOf([&](ByteWriter &w) { a.rt.saveState(w); });
}

GuestProcessConfig
processConfig()
{
    GuestProcessConfig cfg;
    cfg.pid = 3;
    return cfg;
}

std::optional<SerializeErrc>
loadProcess(const std::vector<uint8_t> &image)
{
    GuestProcess p(httpdBin(), processConfig());
    return loadOutcome(image, [&](ByteReader &r) { p.loadState(r); });
}

/** A Randomizer image holding the entry function's map. */
std::vector<uint8_t>
randomizerImage()
{
    Randomizer rz(httpdBin(), IsaKind::Risc, PsrConfig{});
    rz.mapFor(httpdBin().entryFuncId);
    return imageOf([&](ByteWriter &w) { rz.saveState(w); });
}

std::optional<SerializeErrc>
loadRandomizer(const std::vector<uint8_t> &image)
{
    Randomizer rz(httpdBin(), IsaKind::Risc, PsrConfig{});
    return loadOutcome(image, [&](ByteReader &r) { rz.loadState(r); });
}

// The count lower bounds ByteReader::count checks against are the
// encoded sizes of a default (empty) element.
TEST(CheckpointLoad, MinimumSizesMatchEncodings)
{
    EXPECT_EQ(imageOf([](ByteWriter &w) {
                  const Request empty;
                  Request::fields(w, empty);
              }).size(),
              Request::kBytes);
    EXPECT_EQ(imageOf([](ByteWriter &w) {
                  const MigrationOutcome empty;
                  MigrationOutcome::fields(w, empty);
              }).size(),
              MigrationOutcome::kMinBytes);
    EXPECT_EQ(imageOf([](ByteWriter &w) {
                  const RelocationMap empty;
                  RelocationMap::fields(w, empty);
              }).size(),
              RelocationMap::kMinBytes);
}

// Byte 0 of a runtime image set to 2 used to index the VM array out
// of range when loadState re-armed the security hook.
TEST(CheckpointLoad, RejectsIsaBytesNoWriterProduces)
{
    const std::vector<uint8_t> rt = runtimeImage();
    ASSERT_EQ(RuntimeRig().load(rt), std::nullopt);
    for (size_t off : { kRtCurrent, kRtStartIsa, kRtFaultIsa }) {
        ASSERT_LT(rt[off], kNumIsas) << off;
        for (uint8_t bad : { uint8_t(2), uint8_t(0xff) })
            EXPECT_EQ(RuntimeRig().load(withByte(rt, off, bad)),
                      SerializeErrc::Corrupt)
                << "runtime byte " << off << " = " << int(bad);
    }

    const std::vector<uint8_t> rz = randomizerImage();
    ASSERT_EQ(loadRandomizer(rz), std::nullopt);
    ASSERT_EQ(rz[kRzFirstMap + kMapIsa], uint8_t(IsaKind::Risc));
    EXPECT_EQ(loadRandomizer(withByte(rz, kRzFirstMap + kMapIsa, 2)),
              SerializeErrc::Corrupt);

    GuestProcess a(httpdBin(), processConfig());
    const std::vector<uint8_t> proc =
        imageOf([&](ByteWriter &w) { a.saveState(w); });
    ASSERT_EQ(loadProcess(proc), std::nullopt);
    ASSERT_EQ(proc[kProcFaultIsa], uint8_t(IsaKind::Risc));
    EXPECT_EQ(loadProcess(withByte(proc, kProcFaultIsa, 2)),
              SerializeErrc::Corrupt);
}

TEST(CheckpointLoad, RejectsStateFaultAndStopBytesNoWriterProduces)
{
    GuestProcess a(httpdBin(), processConfig());
    const std::vector<uint8_t> proc =
        imageOf([&](ByteWriter &w) { a.saveState(w); });
    ASSERT_EQ(proc[kProcState], uint8_t(ProcState::Blocked));
    ASSERT_EQ(proc[kProcFaultKind], uint8_t(FaultKind::None));
    ASSERT_EQ(proc[kProcPending], uint8_t(FaultKind::None));
    // ProcState: past the last state, and Running, which saveState
    // never sees.
    for (uint8_t bad : { uint8_t(kNumProcStates),
                         uint8_t(ProcState::Running) })
        EXPECT_EQ(loadProcess(withByte(proc, kProcState, bad)),
                  SerializeErrc::Corrupt)
            << int(bad);
    for (size_t off : { kProcFaultKind, kProcPending })
        EXPECT_EQ(loadProcess(withByte(proc, off, kNumFaultKinds)),
                  SerializeErrc::Corrupt)
            << off;

    const std::vector<uint8_t> rt = runtimeImage();
    ASSERT_EQ(rt[kRtReason], uint8_t(VmStop::StepLimit));
    ASSERT_EQ(rt[kRtFaultKind], uint8_t(FaultKind::None));
    EXPECT_EQ(RuntimeRig().load(withByte(rt, kRtReason, kNumVmStops)),
              SerializeErrc::Corrupt);
    EXPECT_EQ(
        RuntimeRig().load(withByte(rt, kRtFaultKind, kNumFaultKinds)),
        SerializeErrc::Corrupt);
}

// Relocation-map register bytes index 16-entry register arrays.
TEST(CheckpointLoad, RejectsRegisterBytesOutOfRange)
{
    const std::vector<uint8_t> rz = randomizerImage();
    ASSERT_GE(u32At(rz, kRzMapCount), 1u);
    const size_t map = kRzFirstMap;
    const size_t slots = u32At(rz, map + kMapSlotCount);
    const size_t args = map + kMapArgRegs + 8 * slots;
    for (size_t off : { map + kMapRegMap, map + kMapRegMap + 15, args,
                        args + 3, args + 4 /* retReg */ }) {
        ASSERT_LT(rz[off], 16) << off;
        EXPECT_EQ(loadRandomizer(withByte(rz, off, 16)),
                  SerializeErrc::Corrupt)
            << off;
        EXPECT_EQ(loadRandomizer(withByte(rz, off, 0xff)),
                  SerializeErrc::Corrupt)
            << off;
    }
}

// A damaged count or length is refused as Truncated before it sizes
// a buffer, set or map: each used to allocate up to 4 GiB first.
TEST(CheckpointLoad, CountsCheckedBeforeSizing)
{
    constexpr uint32_t kHuge = 0xffffffffu;
    {
        GuestOs os;
        const std::vector<uint8_t> img =
            imageOf([&](ByteWriter &w) { os.saveState(w); });
        ASSERT_EQ(img.size(), kOsOutputCount + 4);
        EXPECT_EQ(loadOutcome(withU32(img, kOsOutputCount, kHuge),
                              [](ByteReader &r) { GuestOs().loadState(r); }),
                  SerializeErrc::Truncated);
    }
    {
        // A fresh VM has nothing vetted: its image ends in count 0.
        RuntimeRig a;
        const std::vector<uint8_t> img = imageOf(
            [&](ByteWriter &w) { a.rt.vm(IsaKind::Risc).saveState(w); });
        ASSERT_EQ(u32At(img, img.size() - 4), 0u);
        RuntimeRig b;
        EXPECT_EQ(loadOutcome(withU32(img, img.size() - 4, kHuge),
                              [&](ByteReader &r) {
                                  b.rt.vm(IsaKind::Risc).loadState(r);
                              }),
                  SerializeErrc::Truncated);
    }
    {
        const std::vector<uint8_t> rz = randomizerImage();
        EXPECT_EQ(
            loadRandomizer(withU32(rz, kRzFirstMap + kMapSlotCount, kHuge)),
            SerializeErrc::Truncated);
        EXPECT_EQ(loadRandomizer(withU32(rz, kRzMapCount, kHuge)),
                  SerializeErrc::Truncated);
    }
    {
        const std::vector<uint8_t> rt = runtimeImage();
        ASSERT_EQ(u32At(rt, kRtLogCount), 0u);
        EXPECT_EQ(RuntimeRig().load(withU32(rt, kRtLogCount, kHuge)),
                  SerializeErrc::Truncated);
    }
}

/** Offsets in server checkpoint @p image of @p srv (the server it was
 *  saved from) that hold an enum, ISA, count or length byte. */
std::vector<size_t>
checkpointHotBytes(ProtectedServer &srv, const std::vector<uint8_t> &image)
{
    const size_t W = srv.workers().size();
    // Head: worker count; per in-flight slot (40 bytes from 60) its
    // request kind and assigned ISA; the intake count.
    std::vector<size_t> hot = { 0 };
    for (size_t i = 0; i < W; ++i) {
        hot.push_back(60 + 40 * i + 8);
        hot.push_back(60 + 40 * i + 30);
    }
    hot.push_back(60 + 41 * W);
    // The worker images close the checkpoint, in pid order.
    size_t end = image.size();
    for (size_t i = W; i-- > 0;) {
        GuestProcess &p = srv.worker(i);
        const size_t proc =
            end - imageOf([&](ByteWriter &w) { p.saveState(w); }).size();
        end = proc;
        for (size_t off : { kProcState, kProcFaultKind, kProcFaultIsa,
                            kProcPending, kProcOs + kOsOutputCount })
            hot.push_back(proc + off);
        const size_t rt = proc + kProcOs +
            imageOf([&](ByteWriter &w) { p.os().saveState(w); }).size();
        for (size_t off : { kRtCurrent, kRtStartIsa, kRtReason,
                            kRtFaultKind, kRtFaultIsa, kRtLogCount })
            hot.push_back(rt + off);
        const size_t rtEnd = rt +
            imageOf([&](ByteWriter &w) { p.runtime().saveState(w); })
                .size();
        size_t vm = rtEnd;
        for (IsaKind isa : { IsaKind::Cisc, IsaKind::Risc }) {
            vm -= imageOf([&](ByteWriter &w) {
                      p.runtime().vm(isa).saveState(w);
                  }).size();
            hot.push_back(vm);
            const size_t rz = vm + kVmRandomizer;
            if (u32At(image, rz + kRzMapCount) == 0)
                continue;
            for (size_t off : { rz + kRzMapCount,
                                rz + kRzFirstMap + kMapIsa,
                                rz + kRzFirstMap + kMapRegMap,
                                rz + kRzFirstMap + kMapSlotCount })
                hot.push_back(off);
        }
    }
    return hot;
}

// Seeded damage to a small server checkpoint: truncations, random bit
// flips, and rewrites of its enum, ISA, count and length bytes. Each
// damaged image, loaded into a fresh server, either loads or throws
// SerializeError; a truncated one always throws Truncated.
TEST(Checkpoint, FuzzLoadsOrThrowsTyped)
{
    const ServerConfig cfg = checkpointedConfig();
    const uint64_t checksum = ProtectedServer::referenceChecksum(httpdBin());
    ProtectedServer live(httpdBin(), cfg, checksum);
    live.beginRun();
    for (int i = 0; i < 30; ++i)
        ASSERT_TRUE(live.stepRound());
    const std::vector<uint8_t> good =
        imageOf([&](ByteWriter &w) { live.saveCheckpoint(w); });
    const std::vector<size_t> hot = checkpointHotBytes(live, good);

    auto load = [&](const std::vector<uint8_t> &image) {
        ProtectedServer srv(httpdBin(), cfg, checksum);
        srv.beginRun();
        return loadOutcome(image,
                           [&](ByteReader &r) { srv.loadCheckpoint(r); });
    };
    ASSERT_EQ(load(good), std::nullopt);

    constexpr int kCases = 600;
    Rng rng(0xf022);
    int rejected = 0;
    for (int c = 0; c < kCases; ++c) {
        std::vector<uint8_t> bad = good;
        if (c % 3 == 0) {
            bad.resize(rng.below(good.size()));
            EXPECT_EQ(load(bad), SerializeErrc::Truncated)
                << "truncated to " << bad.size();
            ++rejected;
            continue;
        }
        if (c % 3 == 1) {
            for (uint64_t n = 1 + rng.below(4); n > 0; --n)
                bad[rng.below(bad.size())] ^= uint8_t(1u << rng.below(8));
        } else {
            size_t off = hot[rng.below(hot.size())];
            bad[off] = rng.chance(0.5) ? uint8_t(0xff)
                                       : uint8_t(bad[off] ^ (1u << rng.below(8)));
        }
        rejected += load(bad).has_value();
    }
    // Every truncation, and most rewrites of a checked byte.
    EXPECT_GT(rejected, kCases / 2);
}

/** @p journal with the payload of round @p round's checkpoint
 *  replaced by @p payload (record and blob lengths rewritten). */
std::vector<uint8_t>
withCheckpoint(const std::vector<uint8_t> &journal, uint64_t round,
               const std::vector<uint8_t> &payload)
{
    for (size_t off : recordOffsets(journal, RecordTag::Checkpoint)) {
        ByteReader head(journal.data() + off + 5, 8);
        if (head.u64() != round)
            continue;
        ByteWriter rec;
        rec.u8(uint8_t(RecordTag::Checkpoint));
        rec.u32(uint32_t(12 + payload.size()));
        rec.u64(round);
        rec.u32(uint32_t(payload.size()));
        rec.bytes(payload.data(), payload.size());
        std::vector<uint8_t> out(journal.begin(), journal.begin() + off);
        out.insert(out.end(), rec.data().begin(), rec.data().end());
        out.insert(out.end(),
                   journal.begin() + off + 5 + recordLen(journal, off),
                   journal.end());
        return out;
    }
    ADD_FAILURE() << "no checkpoint at round " << round;
    return journal;
}

// A windowed replay that restores a damaged checkpoint ends in a
// ReplayError, whether the damage is a truncation, a trailing byte, or
// an enum or count byte no writer produces.
TEST(Checkpoint, DamagedCheckpointFailsWindowedReplayTyped)
{
    const ServerConfig cfg = checkpointedConfig();
    const std::string fixture = fixturePath("server_checkpointed.hjl");
    const std::vector<uint8_t> journal = slurp(fixture);
    JournalFile file(fixture);
    const uint64_t round = file.journal().checkpointAtOrBefore(30);
    ASSERT_GT(round, 0u);
    const std::vector<uint8_t> good = file.checkpoint(round);

    ProtectedServer restored(httpdBin(), cfg);
    restored.beginRun();
    ByteReader r(good);
    restored.loadCheckpoint(r);
    const std::vector<size_t> hot = checkpointHotBytes(restored, good);

    std::vector<std::vector<uint8_t>> damaged;
    for (size_t keep : { size_t(0), size_t(3), good.size() / 2,
                         good.size() - 1 })
        damaged.emplace_back(good.begin(), good.begin() + keep);
    damaged.push_back(good);
    damaged.back().push_back(0);
    for (size_t off : hot) {
        damaged.push_back(good);
        damaged.back()[off] = 0xff;
    }
    damaged.push_back(withU32(good, hot.front(), 3)); // worker count

    const std::string path = tempPath("replay_damaged_checkpoint.hjl");
    for (size_t i = 0; i < damaged.size(); ++i) {
        spit(path, withCheckpoint(journal, round, damaged[i]));
        ReplayError e = replayErrorOf(
            [&] { replayWindow(httpdBin(), cfg, path, round); });
        EXPECT_EQ(e.code(), ReplayErrc::Corrupt) << "case " << i;
    }
}

// The introspection server: line protocol over a real TCP socket —
// guest listing, registers, memory, telemetry, checkpoint-to-disk,
// and stepping a paused run.
TEST(Introspect, LineProtocolOverTcp)
{
    ServerConfig cfg = smallConfig();
    cfg.requestCount = 40;
    ProtectedServer srv(httpdBin(), cfg);
    srv.beginRun();
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(srv.stepRound());

    IntrospectionServer intro(srv);
    ASSERT_GT(intro.port(), 0);
    std::thread server([&] { intro.serve(); });

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(intro.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::string pending;
    auto rpc = [&](const std::string &cmd) {
        std::string req = cmd + "\n";
        EXPECT_EQ(::write(fd, req.data(), req.size()),
                  ssize_t(req.size()));
        std::vector<std::string> lines;
        for (;;) {
            size_t nl;
            while ((nl = pending.find('\n')) == std::string::npos) {
                char buf[512];
                ssize_t n = ::read(fd, buf, sizeof(buf));
                if (n <= 0)
                    return lines;
                pending.append(buf, size_t(n));
            }
            std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            lines.push_back(line);
            if (line.rfind("ok", 0) == 0 || line.rfind("err", 0) == 0)
                return lines;
        }
    };
    auto terminator = [](const std::vector<std::string> &lines) {
        return lines.empty() ? std::string() : lines.back();
    };

    std::vector<std::string> status = rpc("status");
    ASSERT_GE(status.size(), 2u);
    EXPECT_EQ(status[0], "round=3");
    EXPECT_EQ(terminator(status), "ok");

    std::vector<std::string> guests = rpc("guests");
    EXPECT_EQ(guests.size(), cfg.workers + 1);
    EXPECT_EQ(guests[0].rfind("guest 0 ", 0), 0u);

    std::vector<std::string> regs = rpc("regs 0");
    EXPECT_EQ(regs.size(), 16u + 2u + 1u);
    EXPECT_EQ(regs[16].rfind("pc=", 0), 0u);
    EXPECT_EQ(terminator(rpc("regs 99")), "err no such guest");

    char memCmd[64];
    std::snprintf(memCmd, sizeof(memCmd), "mem 0 %x 32",
                  unsigned(layout::kDataBase));
    std::vector<std::string> mem = rpc(memCmd);
    EXPECT_EQ(mem.size(), 3u); // two 16-byte lines + ok

    std::vector<std::string> telem = rpc("telemetry");
    EXPECT_EQ(terminator(telem), "ok");
    bool sawRound = false;
    for (const std::string &l : telem)
        sawRound = sawRound || l == "round=3";
    EXPECT_TRUE(sawRound);

    std::string cpPath = tempPath("introspect_checkpoint.bin");
    std::vector<std::string> cp = rpc("checkpoint " + cpPath);
    EXPECT_EQ(cp.back().rfind("ok bytes=", 0), 0u);

    std::vector<std::string> step = rpc("step 2");
    EXPECT_EQ(step.back().rfind("ok stepped=2", 0), 0u);
    EXPECT_EQ(rpc("status")[0], "round=5");

    EXPECT_EQ(terminator(rpc("bogus")),
              "err unknown command: bogus");
    EXPECT_EQ(terminator(rpc("quit")), "ok bye");
    ::close(fd);
    server.join();

    // The checkpoint the protocol wrote restores into a fresh server.
    std::vector<uint8_t> blob = slurp(cpPath);
    ASSERT_GT(blob.size(), 0u);
    ProtectedServer restored(httpdBin(), cfg);
    restored.beginRun();
    ByteReader r(blob);
    restored.loadCheckpoint(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(restored.roundNumber(), 3u);
}
