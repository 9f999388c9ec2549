/**
 * @file
 * Synthetic request stream for the protected server: an httpd-style
 * traffic model where each request is a pure function of (stream
 * seed, request id). Requests arrive in id order; their kind and
 * service cost never depend on scheduling, so a server run is
 * reproducible for a fixed configuration regardless of how many host
 * threads execute it.
 */

#ifndef HIPSTR_SERVER_REQUEST_STREAM_HH
#define HIPSTR_SERVER_REQUEST_STREAM_HH

#include <cstdint>

#include "support/random.hh"

namespace hipstr
{

/** What a request asks the worker to do. */
enum class RequestKind : uint8_t
{
    Static = 0, ///< cheap static-file style response
    Dynamic,    ///< scripted page: the expensive common case
    Post,       ///< mutation request: mid-weight
    Malformed,  ///< parser-corrupting input — crashes the worker
    Attack      ///< ROP payload: raises a PSR security event
};

constexpr size_t kNumRequestKinds = 5;

inline const char *
requestKindName(RequestKind k)
{
    switch (k) {
      case RequestKind::Static: return "static";
      case RequestKind::Dynamic: return "dynamic";
      case RequestKind::Post: return "post";
      case RequestKind::Malformed: return "malformed";
      case RequestKind::Attack: return "attack";
    }
    return "?";
}

/**
 * Traffic composition. Fractions of the stream that are dynamic,
 * post, malformed, and attack requests; the remainder is static. The
 * clean mix (all zeros for malformed/attack) drives the baseline
 * throughput experiment; the attack-bearing mix drives the security
 * one.
 */
struct RequestMix
{
    double dynamicFrac = 0.25;
    double postFrac = 0.10;
    double malformedFrac = 0.0;
    double attackFrac = 0.0;
};

/** Mean service cost per kind, in guest instructions. */
struct RequestCosts
{
    uint64_t staticInsts = 20'000;
    uint64_t dynamicInsts = 60'000;
    uint64_t postInsts = 40'000;
    uint64_t malformedInsts = 10'000;
    uint64_t attackInsts = 40'000;
};

/** One request of the stream. */
struct Request
{
    uint64_t id = 0;
    RequestKind kind = RequestKind::Static;
    uint64_t costInsts = 0; ///< guest instructions to serve it
    unsigned retries = 0;   ///< times re-queued after worker loss

    /** Encoded size, for ByteReader::count. */
    static constexpr size_t kBytes = 21;

    /** Field walk shared by checkpoints and the journal's Request
     *  records (support/serialize.hh). */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &r)
    {
        io.u64(r.id);
        io.bounded(r.kind, kNumRequestKinds);
        io.u64(r.costInsts);
        io.u32(r.retries);
    }
};

/**
 * The stream generator. make(id) is deterministic and stateless: two
 * calls with the same id return the same request, so the server can
 * materialize requests lazily in arrival order.
 */
class RequestStream
{
  public:
    RequestStream(uint64_t seed, const RequestMix &mix,
                  const RequestCosts &costs)
        : _seed(seed), _mix(mix), _costs(costs)
    {
    }

    Request
    make(uint64_t id) const
    {
        // Private per-request generator: fold the id into the stream
        // seed through SplitMix64 so neighbouring ids decorrelate.
        uint64_t s = _seed + 0x9e3779b97f4a7c15ull * (id + 1);
        Rng rng(splitMix64(s));

        Request r;
        r.id = id;
        double roll = rng.uniform();
        uint64_t mean = _costs.staticInsts;
        if (roll < _mix.attackFrac) {
            r.kind = RequestKind::Attack;
            mean = _costs.attackInsts;
        } else if (roll < _mix.attackFrac + _mix.malformedFrac) {
            r.kind = RequestKind::Malformed;
            mean = _costs.malformedInsts;
        } else if (roll < _mix.attackFrac + _mix.malformedFrac +
                       _mix.dynamicFrac) {
            r.kind = RequestKind::Dynamic;
            mean = _costs.dynamicInsts;
        } else if (roll < _mix.attackFrac + _mix.malformedFrac +
                       _mix.dynamicFrac + _mix.postFrac) {
            r.kind = RequestKind::Post;
            mean = _costs.postInsts;
        }
        // +/-25% uniform jitter around the kind's mean cost.
        uint64_t spread = mean / 2;
        r.costInsts = mean - spread / 2 +
            (spread ? rng.below(spread + 1) : 0);
        return r;
    }

    uint64_t seed() const { return _seed; }
    const RequestMix &mix() const { return _mix; }
    const RequestCosts &costs() const { return _costs; }

  private:
    uint64_t _seed;
    RequestMix _mix;
    RequestCosts _costs;
};

} // namespace hipstr

#endif // HIPSTR_SERVER_REQUEST_STREAM_HH
