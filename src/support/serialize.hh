/**
 * @file
 * Byte-level serialization for checkpoints and the record/replay
 * journal (src/replay). Fixed-width little-endian encoding so
 * journals and checkpoint images are portable across hosts; every
 * read is bounds-checked and throws a typed SerializeError instead
 * of reading garbage, which is what turns a truncated or bit-flipped
 * journal into a clean diagnostic rather than a diverged replay.
 */

#ifndef HIPSTR_SUPPORT_SERIALIZE_HH
#define HIPSTR_SUPPORT_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace hipstr
{

/** Why a deserialization failed. */
enum class SerializeErrc
{
    Truncated, ///< read past the end of the buffer
    Corrupt,   ///< decoded a value no writer can produce
};

/** Thrown by ByteReader on malformed input. */
class SerializeError : public std::runtime_error
{
  public:
    SerializeError(SerializeErrc code, const std::string &what)
        : std::runtime_error(what), _code(code)
    {
    }

    SerializeErrc code() const { return _code; }

  private:
    SerializeErrc _code;
};

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { _buf.push_back(v); }

    void
    u16(uint16_t v)
    {
        u8(uint8_t(v));
        u8(uint8_t(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(uint16_t(v));
        u16(uint16_t(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(uint32_t(v));
        u32(uint32_t(v >> 32));
    }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const uint8_t *p, size_t n)
    {
        _buf.insert(_buf.end(), p, p + n);
    }

    /** u32 length prefix + raw bytes. */
    void
    str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    const std::vector<uint8_t> &data() const { return _buf; }
    size_t size() const { return _buf.size(); }

    /** Empty the sink but keep its capacity, so a writer reused for
     *  same-sized images allocates once. */
    void clear() { _buf.clear(); }

  private:
    std::vector<uint8_t> _buf;
};

/** Bounds-checked little-endian byte source over a borrowed buffer. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *p, size_t len) : _p(p), _len(len) {}

    explicit ByteReader(const std::vector<uint8_t> &v)
        : _p(v.data()), _len(v.size())
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return _p[_off++];
    }

    uint16_t
    u16()
    {
        uint16_t lo = u8();
        return uint16_t(lo | (uint16_t(u8()) << 8));
    }

    uint32_t
    u32()
    {
        uint32_t lo = u16();
        return lo | (uint32_t(u16()) << 16);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        return lo | (uint64_t(u32()) << 32);
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1)
            throw SerializeError(SerializeErrc::Corrupt,
                                 "boolean byte out of range");
        return v != 0;
    }

    void
    bytes(uint8_t *out, size_t n)
    {
        need(n);
        if (n == 0)
            return; // out may be null (an empty vector's data())
        std::memcpy(out, _p + _off, n);
        _off += n;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(_p + _off), n);
        _off += n;
        return s;
    }

    /** Throw Truncated unless @p n more bytes are available. */
    void
    need(size_t n) const
    {
        if (n > _len - _off)
            throw SerializeError(SerializeErrc::Truncated,
                                 "read past end of buffer");
    }

    size_t remaining() const { return _len - _off; }
    size_t offset() const { return _off; }
    bool atEnd() const { return _off == _len; }
    /** Borrowed pointer to the current read position. */
    const uint8_t *ptr() const { return _p + _off; }

    /** Skip @p n bytes (bounds-checked). */
    void
    skip(size_t n)
    {
        need(n);
        _off += n;
    }

  private:
    const uint8_t *_p;
    size_t _len;
    size_t _off = 0;
};

} // namespace hipstr

#endif // HIPSTR_SUPPORT_SERIALIZE_HH
