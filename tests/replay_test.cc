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
