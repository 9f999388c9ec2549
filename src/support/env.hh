/**
 * @file
 * Centralized HIPSTR_* environment-knob parsing. Every knob the
 * project reads goes through here so the accepted grammar is uniform
 * and garbage values are rejected loudly (hipstr_fatal) instead of
 * being silently coerced to a default — a mistyped HIPSTR_JOBS=8x
 * used to fall back to hardware concurrency without a word.
 *
 * Knobs currently routed through this module:
 *   HIPSTR_JOBS        worker-thread budget (envUnsigned)
 *   HIPSTR_JIT         trace tier (formation + x86-64 emission)
 *                      on/off (envFlag; default on, auto-disabled
 *                      with a logged reason on non-x86-64 hosts and
 *                      under ASan/UBSan builds)
 *   HIPSTR_MIG_DEBUG   migration transform debug dump (envFlag)
 *   HIPSTR_BENCH_SMOKE bench smoke mode (envFlag)
 *   HIPSTR_RECORD      journal path to record a server run to
 *   HIPSTR_REPLAY      journal path to replay a server run from
 */

#ifndef HIPSTR_SUPPORT_ENV_HH
#define HIPSTR_SUPPORT_ENV_HH

#include <cstdint>
#include <string>

namespace hipstr
{

/**
 * Boolean knob. Accepts 1/true/on/yes and 0/false/off/no (case
 * insensitive); unset or empty yields @p def; anything else is fatal.
 */
bool envFlag(const char *name, bool def);

/**
 * Unsigned integer knob in [@p lo, @p hi]. Unset or empty yields
 * @p def; a non-numeric value, trailing junk, or an out-of-range
 * value is fatal.
 */
uint64_t envUnsigned(const char *name, uint64_t def, uint64_t lo,
                     uint64_t hi);

/** String knob (e.g. a file path). Unset or empty yields @p def. */
std::string envString(const char *name, const std::string &def = "");

} // namespace hipstr

#endif // HIPSTR_SUPPORT_ENV_HH
