#include "relocation.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace hipstr
{

Randomizer::Randomizer(const FatBinary &bin, IsaKind isa,
                       const PsrConfig &cfg)
    : _bin(bin), _isa(isa), _cfg(cfg), _rng(cfg.seed ^
                                            (isa == IsaKind::Risc
                                                 ? 0x52495343ull
                                                 : 0x43495343ull))
{
    _addressTaken = bin.addressTaken;
    if (_addressTaken.size() < bin.funcsFor(isa).size())
        _addressTaken.resize(bin.funcsFor(isa).size(), false);
}

bool
Randomizer::usesDefaultConvention(uint32_t func_id) const
{
    return !_cfg.randomizeCallingConvention ||
        func_id == _bin.entryFuncId || _addressTaken[func_id];
}

const RelocationMap &
Randomizer::mapFor(uint32_t func_id)
{
    auto it = _maps.find(func_id);
    if (it == _maps.end()) {
        Rng child = _rng.split();
        it = _maps.emplace(func_id, generate(func_id, child)).first;

        // Phase accounting: registers the permutation moved or
        // relocated to memory, and stack slots recolored.
        const RelocationMap &map = it->second;
        uint64_t regs = 0;
        for (unsigned r = 0; r < 16; ++r) {
            if (map.regMap[r] != static_cast<Reg>(r))
                ++regs;
            if (map.regToSlot[r] != kNotInMemory)
                ++regs;
        }
        uint64_t slots = map.slotMap.size();
        regallocPhase.add(
            regs, double(regs) * telemetry::cost::kRegallocUsPerReg);
        relocationPhase.add(
            slots,
            double(slots) * telemetry::cost::kRelocationUsPerSlot);
    }
    return it->second;
}

void
Randomizer::reRandomize()
{
    // One Relocation invocation per whole-map regeneration; the work
    // units count the maps dropped (regenerated maps re-accrue their
    // own regalloc/relocation work on the next mapFor()).
    relocationPhase.add(_maps.size(), 0.0);
    _maps.clear();
    ++_generation;
    // Advance the stream so the fresh maps differ from the old ones.
    _rng = _rng.split();
}

RelocationMap
Randomizer::generate(uint32_t func_id, Rng &rng) const
{
    const IsaDescriptor &desc = isaDescriptor(_isa);
    const FuncInfo &fi = _bin.funcInfo(_isa, func_id);

    RelocationMap map;
    map.funcId = func_id;
    map.isa = _isa;

    bool any_randomization = _cfg.randomizeSlots ||
        _cfg.randomizeRegisters || _cfg.relocateRegsToMemory ||
        _cfg.randomizeCallingConvention;
    map.extraSpace = any_randomization ? _cfg.randSpaceBytes : 0;
    map.newFrameSize = fi.frameSize + map.extraSpace;

    // Identity register map by default.
    for (unsigned r = 0; r < 16; ++r) {
        map.regMap[r] = static_cast<Reg>(r);
        map.regToSlot[r] = kNotInMemory;
    }

    // ------------------------------------------------------------
    // Randomized register allocation: independent permutations of the
    // caller-clobbered pool (caller-saved + isel temps) and the
    // callee-saved pool, so clobber semantics survive.
    // ------------------------------------------------------------
    std::vector<Reg> caller_pool = desc.callerSaved;
    caller_pool.insert(caller_pool.end(), desc.iselTemps.begin(),
                       desc.iselTemps.end());
    std::vector<Reg> callee_pool = desc.calleeSaved;

    if (_cfg.randomizeRegisters) {
        std::vector<Reg> shuffled = caller_pool;
        rng.shuffle(shuffled);
        for (size_t i = 0; i < caller_pool.size(); ++i)
            map.regMap[caller_pool[i]] = shuffled[i];
        shuffled = callee_pool;
        rng.shuffle(shuffled);
        for (size_t i = 0; i < callee_pool.size(); ++i)
            map.regMap[callee_pool[i]] = shuffled[i];
    }

    // ------------------------------------------------------------
    // Stack-slot coloring: scatter every relocatable slot over the
    // region [spillBase, newFrameSize - 4) at byte granularity.
    // ------------------------------------------------------------
    uint32_t region_lo = fi.spillBase;
    uint32_t region_hi =
        map.newFrameSize >= 4 ? map.newFrameSize - 4 : region_lo;
    map.regionLo = region_lo;
    map.regionSize = region_hi > region_lo ? region_hi - region_lo : 0;

    std::vector<std::pair<uint32_t, uint32_t>> taken; // [start, end)
    auto overlaps = [&](uint32_t start) {
        for (auto [s, e] : taken) {
            if (start < e && start + 4 > s)
                return true;
        }
        return false;
    };
    auto place_slot = [&]() -> uint32_t {
        hipstr_assert(map.regionSize >= 4);
        for (int attempt = 0; attempt < 256; ++attempt) {
            uint32_t off = region_lo +
                static_cast<uint32_t>(rng.below(map.regionSize - 3));
            if (!overlaps(off)) {
                taken.emplace_back(off, off + 4);
                return off;
            }
        }
        // Dense fallback: first free word-aligned position.
        for (uint32_t off = region_lo; off + 4 <= region_hi;
             off += 4) {
            if (!overlaps(off)) {
                taken.emplace_back(off, off + 4);
                return off;
            }
        }
        hipstr_panic("relocation region exhausted (func %u)",
                     func_id);
    };

    if (_cfg.randomizeSlots && map.regionSize >= 4) {
        for (uint32_t off : fi.relocatableSlots)
            map.slotMap[off] = place_slot();
    }

    // ------------------------------------------------------------
    // Cisc full relocation: registers to random stack slots. The
    // register-bias optimization guarantees at least three candidates
    // stay register-resident (Section 5.4).
    // ------------------------------------------------------------
    if (_isa == IsaKind::Cisc && _cfg.relocateRegsToMemory &&
        map.regionSize >= 4) {
        // Without the bias, every register — including the hottest
        // (the backend's routing temporaries, which appear in almost
        // every spill sequence) — is a relocation candidate. The
        // register-bias optimization (Section 5.4) guarantees the
        // three hottest registers stay register-resident, which is
        // where its ~5.5% performance win comes from.
        std::vector<Reg> candidates = desc.allocatable;
        if (!_cfg.registerBias()) {
            candidates.insert(candidates.end(),
                              desc.iselTemps.begin(),
                              desc.iselTemps.end());
        }
        // With the bias: temps are never candidates and one
        // allocatable register always survives, leaving >= 3
        // register-resident registers. Without it, only a single
        // register is guaranteed to stay.
        size_t keep = 1;
        rng.shuffle(candidates);
        size_t max_reloc =
            candidates.size() > keep ? candidates.size() - keep : 0;
        size_t relocated = 0;
        for (Reg r : candidates) {
            if (relocated >= max_reloc)
                break;
            if (rng.chance(0.6)) {
                map.regToSlot[r] = static_cast<int32_t>(place_slot());
                ++relocated;
            }
        }
    }

    // ------------------------------------------------------------
    // Randomized calling convention.
    // ------------------------------------------------------------
    for (unsigned i = 0; i < 4; ++i)
        map.argRegs[i] = desc.argRegs[i];
    map.retReg = desc.retReg;
    if (!usesDefaultConvention(func_id)) {
        std::vector<Reg> pool = caller_pool; // caller-clobberable only
        rng.shuffle(pool);
        hipstr_assert(pool.size() >= 4);
        for (unsigned i = 0; i < 4; ++i)
            map.argRegs[i] = pool[i];
        map.retReg = pool[rng.below(pool.size())];
    }

    // ------------------------------------------------------------
    // Entropy accounting: every relocated slot or register is one
    // randomizable parameter with log2(regionSize) bits.
    // ------------------------------------------------------------
    map.randomizableParams =
        static_cast<unsigned>(map.slotMap.size());
    for (unsigned r = 0; r < 16; ++r)
        if (map.regToSlot[r] != kNotInMemory)
            ++map.randomizableParams;
    double bits_per_param =
        map.regionSize >= 2 ? std::log2(double(map.regionSize)) : 0.0;
    map.entropyBits = map.randomizableParams * bits_per_param;

    return map;
}

template <class Io, class Self>
void
Randomizer::fields(Io &io, Self &rz)
{
    io.u64(rz._generation);
    Rng::fields(io, rz._rng);
    telemetry::PhaseStats::fields(io, rz.regallocPhase);
    telemetry::PhaseStats::fields(io, rz.relocationPhase);
}

void
Randomizer::saveState(ByteWriter &w) const
{
    fields(w, *this);
    std::vector<uint32_t> ids;
    ids.reserve(_maps.size());
    for (const auto &kv : _maps)
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    w.u32(uint32_t(ids.size()));
    for (uint32_t id : ids)
        RelocationMap::fields(w, _maps.at(id));
}

void
Randomizer::loadState(ByteReader &r)
{
    fields(r, *this);
    _maps.clear();
    uint32_t count = r.count(RelocationMap::kMinBytes);
    for (uint32_t i = 0; i < count; ++i) {
        RelocationMap m;
        RelocationMap::fields(r, m);
        uint32_t id = m.funcId;
        if (!_maps.emplace(id, std::move(m)).second)
            throw SerializeError(SerializeErrc::Corrupt,
                                 "duplicate relocation map");
    }
}

} // namespace hipstr
