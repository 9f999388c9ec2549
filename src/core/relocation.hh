/**
 * @file
 * Relocation maps and the PSR randomizer (Figure 2's "Randomizer").
 *
 * A relocation map is generated per function the first time any block
 * of that function is translated, and specifies:
 *  - randomized calling conventions (argument/return registers),
 *  - randomized register allocation (a clobber-class-preserving
 *    register permutation, plus — on Cisc — relocation of registers
 *    to random stack slots),
 *  - randomized stack-slot coloring (every relocatable frame slot,
 *    including the return-address slot, moves to a random byte offset
 *    inside the frame grown by the randomization space).
 *
 * Register-to-memory relocation is implemented on Cisc only: the paper
 * built its complete PSR prototype on x86 and reports that ARM's
 * strict load/store encodings and lower register pressure make x86
 * both the more vulnerable and the more interesting target
 * (Section 5.5). On Risc we randomize with permutations and slot
 * coloring only, which also keeps the single translator scratch
 * register sufficient for legalization.
 */

#ifndef HIPSTR_CORE_RELOCATION_HH
#define HIPSTR_CORE_RELOCATION_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "binary/fatbin.hh"
#include "core/psr_config.hh"
#include "support/random.hh"
#include "support/serialize.hh"
#include "telemetry/phase.hh"

namespace hipstr
{

/** Marker for "register stays a register". */
constexpr int32_t kNotInMemory = -1;

/** The randomized relocation decisions for one function on one ISA. */
struct RelocationMap
{
    uint32_t funcId = 0;
    IsaKind isa = IsaKind::Cisc;

    /**
     * Register permutation. Identity for SP, the translator scratch,
     * and any register outside the caller/callee-saved pools. The
     * permutation maps caller-saved to caller-saved and callee-saved
     * to callee-saved so call-clobber semantics are preserved.
     */
    std::array<Reg, 16> regMap{};

    /**
     * Cisc full relocation: post-permutation register r additionally
     * lives at frame offset regToSlot[r] when != kNotInMemory.
     */
    std::array<int32_t, 16> regToSlot{};

    /** Old frame offset -> randomized frame offset. */
    std::unordered_map<uint32_t, uint32_t> slotMap;

    /** Randomization space added to the frame. */
    uint32_t extraSpace = 0;
    /** frameSize + extraSpace. */
    uint32_t newFrameSize = 0;

    /**
     * Randomized calling convention: where this function's arguments
     * arrive and where its return value leaves. Callers of this
     * function must be translated against these. Address-taken
     * functions and the entry function keep the default convention
     * (indirect call sites cannot know their callee at translation
     * time).
     */
    std::array<Reg, 4> argRegs{};
    Reg retReg = kNoReg;

    /** Entropy accounting for the security evaluation. @{ */
    unsigned randomizableParams = 0;
    double entropyBits = 0.0;
    /** Byte range slots are scattered over: [regionLo, regionLo+regionSize). */
    uint32_t regionLo = 0;
    uint32_t regionSize = 0;
    /** @} */

    /** Apply the register permutation. */
    Reg mapReg(Reg r) const { return regMap[r]; }
    /** New offset of old frame offset @p off (off if unmapped). */
    uint32_t
    mapSlot(uint32_t off) const
    {
        auto it = slotMap.find(off);
        return it == slotMap.end() ? off : it->second;
    }
};

/**
 * Generates relocation maps on demand and re-randomizes on respawn
 * (Section 5.3's crash/reboot behaviour: every respawn presents the
 * attacker with a fresh randomization).
 */
class Randomizer
{
  public:
    Randomizer(const FatBinary &bin, IsaKind isa,
               const PsrConfig &cfg);

    /** The map for @p func_id, generated on first request. */
    const RelocationMap &mapFor(uint32_t func_id);

    /** Drop all maps and advance the seed (respawn re-randomization). */
    void reRandomize();

    /** Number of re-randomizations performed. */
    uint64_t generation() const { return _generation; }

    const PsrConfig &config() const { return _cfg; }

    /** True if @p func_id keeps the default calling convention. */
    bool usesDefaultConvention(uint32_t func_id) const;

    /**
     * Cumulative profiling of map generation, never reset (see
     * telemetry/phase.hh). Regalloc counts registers permuted or
     * relocated to memory; Relocation counts stack slots recolored,
     * plus one invocation per reRandomize() whole-map regeneration.
     * @{
     */
    telemetry::PhaseStats regallocPhase;
    telemetry::PhaseStats relocationPhase;
    /** @} */

    /**
     * Checkpoint the randomization state: generation counter, RNG
     * stream position, phase profiles, and every generated map
     * verbatim — a restored guest must see the exact frame layouts
     * its stack was built against, and future reRandomize() draws
     * must continue the recorded stream. _addressTaken is derived
     * from the binary in the constructor and is not serialized. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);
    /** @} */

  private:
    RelocationMap generate(uint32_t func_id, Rng &rng) const;

    const FatBinary &_bin;
    IsaKind _isa;
    PsrConfig _cfg;
    uint64_t _generation = 0;
    Rng _rng;
    std::unordered_map<uint32_t, RelocationMap> _maps;
    std::vector<bool> _addressTaken;
};

} // namespace hipstr

#endif // HIPSTR_CORE_RELOCATION_HH
