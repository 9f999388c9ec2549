/**
 * @file
 * Byte-level serialization for checkpoints and the record/replay
 * journal (src/replay). Fixed-width little-endian encoding so
 * journals and checkpoint images are portable across hosts; every
 * read is bounds-checked and throws a typed SerializeError instead
 * of reading garbage, which is what turns a truncated or bit-flipped
 * journal into a clean diagnostic rather than a diverged replay.
 *
 * Field walks. A checkpointed type names its fields once, in image
 * order, in a `template <class Io, class Self> static void
 * fields(Io &, Self &)` that runs over a ByteWriter (saveState, Self
 * const) or a ByteReader (loadState). Both classes answer the same
 * calls: u8/u16/u32/u64, f64, boolean, str, bounded, count, count64,
 * entries and state. The writer's calls are its plain writes. The
 * reader's take the field by reference and check what they read: a
 * bounded byte at or past its limit, an out-of-range boolean and a
 * duplicate map key throw Corrupt, and a count whose elements cannot
 * fit in the bytes left throws Truncated before anything is sized
 * from it. A walk never asks which way it runs; one-way work (derived
 * state, cross-object lookups, geometry checks) stays in saveState
 * and loadState around it.
 */

#ifndef HIPSTR_SUPPORT_SERIALIZE_HH
#define HIPSTR_SUPPORT_SERIALIZE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
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

    /** Field-walk calls (file comment): the writes above. Size
     *  arguments only matter to ByteReader. @{ */
    template <class T> void bounded(T v, size_t) { u8(uint8_t(v)); }
    template <class C> void count(const C &c, size_t) { u32(c.size()); }
    template <class C> void count64(const C &c, size_t) { u64(c.size()); }
    template <class T> void state(const T &t) { t.saveState(*this); }

    /** u32 entry count, then fn(key, value) per entry in key order,
     *  so an unordered map still yields a byte-deterministic image. */
    template <class M, class Fn>
    void
    entries(const M &m, size_t, Fn fn)
    {
        std::vector<const typename M::value_type *> sorted;
        sorted.reserve(m.size());
        for (const auto &kv : m)
            sorted.push_back(&kv);
        std::sort(sorted.begin(), sorted.end(),
                  [](auto a, auto b) { return a->first < b->first; });
        u32(uint32_t(sorted.size()));
        for (const auto *kv : sorted)
            fn(kv->first, kv->second);
    }
    /** @} */

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

    /** Field-walk calls (file comment): read into @p v, checked. @{ */
    template <class T> void u8(T &v) { v = word<T, 1>(u8()); }
    template <class T> void u16(T &v) { v = word<T, 2>(u16()); }
    template <class T> void u32(T &v) { v = word<T, 4>(u32()); }
    template <class T> void u64(T &v) { v = word<T, 8>(u64()); }
    void f64(double &v) { v = f64(); }
    void boolean(bool &v) { v = boolean(); }
    void boolean(std::vector<bool>::reference v) { v = boolean(); }
    void str(std::string &s) { s = str(); }
    template <class T> void state(T &t) { t.loadState(*this); }

    /** A u8 that must be below @p limit (an enum's value count, a
     *  register file's size); Corrupt otherwise. */
    template <class T>
    void
    bounded(T &v, size_t limit)
    {
        uint8_t b = u8();
        if (b >= limit)
            throw SerializeError(SerializeErrc::Corrupt,
                                 "enumerated byte out of range");
        v = T(b);
    }

    /** A u32 count of elements that each encode to at least
     *  @p elemBytes; Truncated if they cannot fit in what is left. */
    uint32_t
    count(size_t elemBytes)
    {
        uint32_t n = u32();
        fits(n, elemBytes);
        return n;
    }

    /** count(), then size @p c to it (default-valued elements). */
    template <class C>
    void
    count(C &c, size_t elemBytes)
    {
        uint32_t n = count(elemBytes);
        c.clear();
        c.resize(n);
    }

    template <class C>
    void
    count64(C &c, size_t elemBytes)
    {
        uint64_t n = u64();
        fits(n, elemBytes);
        c.clear();
        c.resize(n);
    }

    /** Refill @p m from a count and fn(key, value) per entry; a key
     *  seen twice is Corrupt. */
    template <class M, class Fn>
    void
    entries(M &m, size_t elemBytes, Fn fn)
    {
        uint32_t n = count(elemBytes);
        m.clear();
        for (uint32_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            fn(k, v);
            if (!m.emplace(std::move(k), std::move(v)).second)
                throw SerializeError(SerializeErrc::Corrupt,
                                     "duplicate key");
        }
    }

    /** @} */

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
    /** @p raw as a walked field of type T: an N-byte integer. */
    template <class T, size_t N, class U>
    static T
    word(U raw)
    {
        static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                          sizeof(T) == N,
                      "field type must match the call's width");
        return T(raw);
    }

    /** Throw Truncated unless @p n elements of @p elemBytes fit. */
    void
    fits(uint64_t n, size_t elemBytes) const
    {
        if (n > remaining() / elemBytes)
            throw SerializeError(SerializeErrc::Truncated,
                                 "count exceeds remaining bytes");
    }

    const uint8_t *_p;
    size_t _len;
    size_t _off = 0;
};

} // namespace hipstr

#endif // HIPSTR_SUPPORT_SERIALIZE_HH
