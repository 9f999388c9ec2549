/**
 * @file
 * Deterministic pseudo-random number generation for the PSR randomizer,
 * workload input generation, and attack simulation.
 *
 * A from-scratch xoshiro256** implementation is used instead of
 * std::mt19937 so that random streams are bit-identical across standard
 * library implementations — the security experiments are reproducible
 * given a seed.
 */

#ifndef HIPSTR_SUPPORT_RANDOM_HH
#define HIPSTR_SUPPORT_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hipstr
{

/**
 * xoshiro256** PRNG (Blackman & Vigna). Passes BigCrush; tiny state;
 * splittable via jump-free reseeding with SplitMix64.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded through SplitMix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64 random bits. */
    uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    int64_t range(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /** Derive an independent child generator (for per-function streams). */
    Rng split();

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Pick a uniformly random element. @pre !v.empty() */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(below(v.size()))];
    }

    /** Checkpoint field walk (support/serialize.hh): the raw xoshiro
     *  state, so a restored generator continues the saved stream. */
    template <class Io, class Self>
    static void
    fields(Io &io, Self &rng)
    {
        for (auto &word : rng.s)
            io.u64(word);
    }

  private:
    uint64_t s[4];
};

/** SplitMix64 step, used for seed expansion. Exposed for testing. */
uint64_t splitMix64(uint64_t &state);

} // namespace hipstr

#endif // HIPSTR_SUPPORT_RANDOM_HH
