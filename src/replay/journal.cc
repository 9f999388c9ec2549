#include "journal.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace hipstr
{
namespace replay
{

const char *
replayErrcName(ReplayErrc c)
{
    switch (c) {
      case ReplayErrc::BadMagic: return "bad magic";
      case ReplayErrc::BadVersion: return "bad version";
      case ReplayErrc::Truncated: return "truncated";
      case ReplayErrc::Corrupt: return "corrupt";
      case ReplayErrc::ConfigMismatch: return "config mismatch";
      case ReplayErrc::Divergence: return "divergence";
      case ReplayErrc::Io: return "io";
    }
    return "?";
}

JournalWriter::JournalWriter(const std::string &path,
                             uint64_t configHash)
    : _path(path)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io,
                          "cannot open journal for writing: " + path);
    _file = f;
    ByteWriter w;
    w.u64(kJournalMagic);
    w.u32(kJournalVersion);
    w.u64(configHash);
    if (std::fwrite(w.data().data(), 1, w.size(), f) != w.size()) {
        std::fclose(f);
        _file = nullptr;
        throw ReplayError(ReplayErrc::Io,
                          "journal header write failed: " + path);
    }
    _bytes = w.size();
}

JournalWriter::~JournalWriter()
{
    if (_file != nullptr)
        std::fclose(static_cast<FILE *>(_file));
}

void
JournalWriter::record(RecordTag tag, const ByteWriter &payload)
{
    record(tag, payload, ByteWriter{});
}

void
JournalWriter::record(RecordTag tag, const ByteWriter &head,
                      const ByteWriter &tail)
{
    FILE *f = static_cast<FILE *>(_file);
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io, "journal already closed");
    uint64_t len = uint64_t(head.size()) + tail.size();
    if (len > UINT32_MAX)
        throw ReplayError(ReplayErrc::Io,
                          "journal record too large: " + _path);
    uint8_t rec[5] = { static_cast<uint8_t>(tag), uint8_t(len),
                       uint8_t(len >> 8), uint8_t(len >> 16),
                       uint8_t(len >> 24) };
    auto put = [f](const ByteWriter &w) {
        return w.size() == 0 ||
            std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
    };
    if (std::fwrite(rec, 1, sizeof(rec), f) != sizeof(rec) ||
        !put(head) || !put(tail)) {
        throw ReplayError(ReplayErrc::Io,
                          "journal record write failed: " + _path);
    }
    _bytes += sizeof(rec) + len;
}

void
JournalWriter::close()
{
    FILE *f = static_cast<FILE *>(_file);
    if (f == nullptr)
        return;
    _file = nullptr;
    if (std::fclose(f) != 0)
        throw ReplayError(ReplayErrc::Io,
                          "journal close failed: " + _path);
}

uint64_t
Journal::checkpointAtOrBefore(uint64_t round) const
{
    uint64_t best = 0;
    for (const auto &kv : rounds) {
        if (kv.first > round)
            break;
        if (kv.second.checkpointBytes != 0)
            best = kv.first;
    }
    return best;
}

namespace
{

/**
 * Where the record loop reads a journal from: an in-memory image or
 * an open file. It tracks the read offset against the source's size,
 * so reading or skipping past the end throws Truncated before the
 * underlying source is touched.
 */
class ByteSource
{
  public:
    explicit ByteSource(uint64_t size) : _size(size) {}
    virtual ~ByteSource() = default;
    ByteSource(const ByteSource &) = delete;
    ByteSource &operator=(const ByteSource &) = delete;

    uint64_t offset() const { return _off; }
    uint64_t remaining() const { return _size - _off; }
    bool atEnd() const { return _off == _size; }

    /** Copy the next @p n bytes into @p out. */
    void
    read(uint8_t *out, size_t n)
    {
        need(n);
        fetch(out, n);
        _off += n;
    }

    /** Step over the next @p n bytes unread. Bounded here by the
     *  size, because a file seek past the end succeeds silently. */
    void
    skip(uint64_t n)
    {
        need(n);
        if (n == 0)
            return;
        _off += n;
        seek(_off);
    }

  protected:
    /** Read @p n bytes at offset(); the size check already passed. */
    virtual void fetch(uint8_t *out, size_t n) = 0;
    /** Move the next fetch to @p off. */
    virtual void seek(uint64_t off) = 0;

  private:
    void
    need(uint64_t n) const
    {
        if (n > remaining())
            throw ReplayError(ReplayErrc::Truncated,
                              "journal ends mid-record");
    }

    uint64_t _size;
    uint64_t _off = 0;
};

class MemorySource : public ByteSource
{
  public:
    explicit MemorySource(const std::vector<uint8_t> &bytes)
        : ByteSource(bytes.size()), _p(bytes.data())
    {
    }

  private:
    void
    fetch(uint8_t *out, size_t n) override
    {
        if (n != 0)
            std::memcpy(out, _p + offset(), n);
    }

    void seek(uint64_t) override {}

    const uint8_t *_p;
};

/** An open file read from its start; the file stays open when the
 *  source goes. */
class FileSource : public ByteSource
{
  public:
    FileSource(FILE *f, const std::string &path)
        : ByteSource(sizeOf(f, path)), _f(f), _path(path)
    {
        seek(0);
    }

  private:
    static uint64_t
    sizeOf(FILE *f, const std::string &path)
    {
        struct stat st = {};
        if (fstat(fileno(f), &st) != 0)
            throw ReplayError(ReplayErrc::Io,
                              "cannot stat journal: " + path);
        return uint64_t(st.st_size);
    }

    void
    fetch(uint8_t *out, size_t n) override
    {
        if (std::fread(out, 1, n, _f) == n)
            return;
        // The file shrank since it was measured, or the read failed.
        throw ReplayError(std::ferror(_f) != 0 ? ReplayErrc::Io
                                               : ReplayErrc::Truncated,
                          "journal read failed: " + _path);
    }

    void
    seek(uint64_t off) override
    {
        if (fseeko(_f, off_t(off), SEEK_SET) != 0)
            throw ReplayError(ReplayErrc::Io,
                              "journal seek failed: " + _path);
    }

    FILE *_f;
    std::string _path;
};

struct FileCloser
{
    void operator()(FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

FilePtr
openJournal(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw ReplayError(ReplayErrc::Io,
                          "cannot open journal: " + path);
    return FilePtr(f);
}

/** The longest record prefix any tag decodes (End: three u64s). The
 *  rest of a record, a checkpoint payload included, is skipped
 *  unread, so no record's length decides what is held in memory. */
constexpr size_t kMaxDecoded = 24;

/** A Checkpoint record's prefix before its payload: round u64,
 *  payload length u32. */
constexpr uint32_t kCheckpointHead = 12;

/**
 * The record loop behind both parseJournal overloads: read and
 * validate the whole of @p src, indexing checkpoints by offset.
 */
Journal
readJournal(ByteSource &src)
{
    // Header, record heads and decoded bodies all pass through one
    // buffer. SerializeError from the bounds-checked reader over it
    // means a record stops short of what its tag decodes: map it onto
    // the journal's own error taxonomy.
    uint8_t buf[kMaxDecoded] = {};
    auto take = [&](size_t n) {
        src.read(buf, n);
        return ByteReader(buf, n);
    };

    Journal j;
    try {
        if (src.remaining() < 8 || take(8).u64() != kJournalMagic)
            throw ReplayError(ReplayErrc::BadMagic,
                              "not a HIPStR journal");
        uint32_t version = take(4).u32();
        if (version != kJournalVersion) {
            throw ReplayError(ReplayErrc::BadVersion,
                              "unsupported journal version " +
                                  std::to_string(version));
        }
        j.configHash = take(8).u64();

        // Records accumulate into a pending round closed by its Sync.
        RoundData pending;
        uint64_t lastSynced = 0;
        bool sawEnd = false;
        while (!src.atEnd()) {
            ByteReader head = take(5);
            uint8_t tag = head.u8();
            uint32_t len = head.u32();
            if (len > src.remaining())
                throw ReplayError(ReplayErrc::Truncated,
                                  "journal ends mid-record");
            uint64_t bodyStart = src.offset();
            ByteReader body = take(std::min<size_t>(len, kMaxDecoded));
            switch (static_cast<RecordTag>(tag)) {
              case RecordTag::Request: {
                  Request req;
                  Request::fields(body, req);
                  j.requests[req.id] = req;
                  break;
              }
              case RecordTag::Coin: {
                  uint32_t pid = body.u32();
                  uint8_t flip = body.u8();
                  if (flip > 1)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "coin flip not 0/1");
                  pending.coins.emplace_back(pid, flip);
                  break;
              }
              case RecordTag::Fault: {
                  uint32_t pid = body.u32();
                  uint64_t serial = body.u64();
                  QuantumFault f;
                  uint8_t kind = body.u8();
                  if (kind >= kNumFaultKinds)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "fault record has bad kind");
                  f.kind = static_cast<FaultKind>(kind);
                  f.payload = body.u64();
                  j.faults[{ pid, serial }] = f;
                  break;
              }
              case RecordTag::Outage: {
                  uint32_t coreId = body.u32();
                  body.u8(); // isa: informational
                  uint64_t round = body.u64();
                  uint32_t lenRounds = body.u32();
                  j.outages[{ coreId, round }] = lenRounds;
                  break;
              }
              case RecordTag::Sync: {
                  uint64_t round = body.u64();
                  if (round <= lastSynced)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "sync rounds not increasing");
                  pending.syncSig = body.u64();
                  j.rounds[round] = std::move(pending);
                  pending = RoundData{};
                  lastSynced = round;
                  break;
              }
              case RecordTag::Checkpoint: {
                  uint64_t round = body.u64();
                  auto it = j.rounds.find(round);
                  if (it == j.rounds.end())
                      throw ReplayError(
                          ReplayErrc::Corrupt,
                          "checkpoint for an unsynced round");
                  uint32_t blob = body.u32();
                  if (blob == 0 || blob != len - kCheckpointHead)
                      throw ReplayError(ReplayErrc::Corrupt,
                                        "checkpoint length mismatch");
                  it->second.checkpointOffset =
                      bodyStart + kCheckpointHead;
                  it->second.checkpointBytes = blob;
                  break;
              }
              case RecordTag::End: {
                  j.endRounds = body.u64();
                  j.endSignature = body.u64();
                  j.endServed = body.u64();
                  sawEnd = true;
                  break;
              }
              default:
                  throw ReplayError(ReplayErrc::Corrupt,
                                    "unknown journal record tag " +
                                        std::to_string(tag));
            }
            src.skip(bodyStart + len - src.offset());
            if (sawEnd)
                break;
        }
        if (!sawEnd)
            throw ReplayError(ReplayErrc::Truncated,
                              "journal has no End record");
        if (!src.atEnd())
            throw ReplayError(ReplayErrc::Corrupt,
                              "trailing bytes after End record");
        if (j.endRounds != lastSynced)
            throw ReplayError(ReplayErrc::Corrupt,
                              "End round count disagrees with syncs");
    } catch (const SerializeError &e) {
        throw ReplayError(e.code() == SerializeErrc::Truncated
                              ? ReplayErrc::Truncated
                              : ReplayErrc::Corrupt,
                          std::string("journal unreadable: ") +
                              e.what());
    }
    return j;
}

} // namespace

Journal
parseJournal(const std::vector<uint8_t> &bytes)
{
    MemorySource src(bytes);
    return readJournal(src);
}

Journal
parseJournal(const std::string &path)
{
    FilePtr f = openJournal(path);
    FileSource src(f.get(), path);
    return readJournal(src);
}

JournalFile::JournalFile(const std::string &path) : _path(path)
{
    FilePtr f = openJournal(path);
    FileSource src(f.get(), path);
    _j = readJournal(src);
    _file = f.release();
}

JournalFile::~JournalFile()
{
    std::fclose(static_cast<FILE *>(_file));
}

std::vector<uint8_t>
JournalFile::checkpoint(uint64_t round) const
{
    auto it = _j.rounds.find(round);
    if (it == _j.rounds.end() || it->second.checkpointBytes == 0)
        throw ReplayError(ReplayErrc::Corrupt,
                          "no checkpoint at round " +
                              std::to_string(round));
    std::vector<uint8_t> out(it->second.checkpointBytes);
    FileSource src(static_cast<FILE *>(_file), _path);
    src.skip(it->second.checkpointOffset);
    src.read(out.data(), out.size());
    return out;
}

} // namespace replay
} // namespace hipstr
