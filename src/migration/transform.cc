#include "transform.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"

namespace hipstr
{

double
MigrationCostModel::destFrequencyGhz(IsaKind dest)
{
    // Table 1: ARM-like core at 2 GHz, x86-like core at 3.3 GHz.
    return dest == IsaKind::Risc ? 2.0 : 3.3;
}

double
MigrationCostModel::microseconds(const MigrationOutcome &o,
                                 IsaKind dest) const
{
    double cycles = baseCycles + cyclesPerFrame * o.frames +
        cyclesPerValue * o.valuesMoved +
        cyclesPerObjectByte * o.objectBytes +
        cyclesPerRaRewrite * o.raRewrites;
    return cycles / (destFrequencyGhz(dest) * 1000.0);
}

namespace
{

/** One unwound frame. */
struct Frame
{
    uint32_t funcId = 0;
    Addr spA = 0;                      ///< source-side frame base
    Addr spB = 0;                      ///< destination-side frame base
    Addr raA = 0;                      ///< source return address
    const CallSiteInfo *callSite = nullptr; ///< null for outermost
    const MachBlockInfo *blockA = nullptr;  ///< resume/post-call block
};

} // namespace

MigrationOutcome
MigrationEngine::migrate(PsrVm &from, PsrVm &to, Addr guest_pc)
{
    MigrationOutcome out;
    const IsaKind isaA = from.isa();
    const IsaKind isaB = to.isa();
    hipstr_assert(isaA != isaB);

    auto fail = [&](const std::string &why) {
        out.ok = false;
        out.error = why;
        return out;
    };

    // ---- 1. Locate and validate the equivalence point. ----
    const FuncInfo *fiA = _bin.findFuncByAddr(isaA, guest_pc);
    if (fiA == nullptr)
        return fail("target outside any function");
    const MachBlockInfo *top_block = fiA->blockAt(guest_pc);
    if (top_block == nullptr || top_block->start != guest_pc)
        return fail("target is not an equivalence point");
    if (classifyBlock(*fiA, *top_block) == MigrationSafety::Unsafe)
        return fail("target block is not migration-safe");

    Randomizer &randA = from.randomizer();
    Randomizer &randB = to.randomizer();

    // ---- 2. Unwind the source stack. ----
    std::vector<Frame> frames; // frames[0] = innermost (top)
    {
        const FuncInfo *cur = fiA;
        const MachBlockInfo *cur_block = top_block;
        Addr sp = from.state.sp();
        for (unsigned depth = 0; depth < 4096; ++depth) {
            const RelocationMap &mapA = randA.mapFor(cur->funcId);
            Addr ra;
            try {
                ra = _mem.read32(
                    sp + mapA.mapSlot(cur->raSlot));
            } catch (const Memory::Fault &) {
                return fail("stack walk faulted");
            }

            Frame f;
            f.funcId = cur->funcId;
            f.spA = sp;
            f.raA = ra;
            f.blockA = cur_block;
            frames.push_back(f);

            if (ra == _bin.startRetAddr[static_cast<size_t>(isaA)])
                break; // outermost frame

            const CallSiteInfo *cs =
                _bin.findCallSiteByRetAddr(isaA, ra);
            if (cs == nullptr)
                return fail("unwalkable return address");
            frames.back().callSite = cs;

            const FuncInfo &parent = _bin.funcInfo(isaA, cs->funcId);
            const MachBlockInfo *parent_block = parent.blockAt(ra);
            if (parent_block == nullptr ||
                parent_block->start != ra) {
                return fail("return address is not a post-call "
                            "block");
            }
            // Interior frames resume at post-call blocks; their live
            // state must also be transformable.
            if (classifyBlock(parent, *parent_block) ==
                MigrationSafety::Unsafe) {
                return fail("interior frame is not migration-safe");
            }

            sp += mapA.newFrameSize;
            cur = &parent;
            cur_block = parent_block;
        }
        if (frames.back().callSite != nullptr &&
            frames.back().raA !=
                _bin.startRetAddr[static_cast<size_t>(isaA)]) {
            return fail("stack too deep");
        }
    }

    // ---- 3. Lay out the destination stack. ----
    {
        Addr parent_sp = layout::kStackTop - 64;
        for (size_t k = frames.size(); k-- > 0;) {
            const RelocationMap &mapB =
                randB.mapFor(frames[k].funcId);
            frames[k].spB = parent_sp - mapB.newFrameSize;
            parent_sp = frames[k].spB;
        }
    }

    // Fresh destination architectural state.
    MachineState new_state(isaB);
    new_state.setSp(frames.front().spB);

    // A register-allocated value's authoritative location depends on
    // its clobber class and where the frame is paused:
    //  - caller-saved + frame paused at a call (interior frames, and
    //    the top frame when resuming at a post-call segment): the
    //    backend spilled it to its canonical slot around the call;
    //  - callee-saved + interior frame: recovered through the save
    //    chain (the first callee that saved the physical register
    //    holds this frame's value), falling back to the live machine
    //    register;
    //  - otherwise: the (renamed, possibly memory-relocated) register
    //    itself.
    auto caller_saved = [](IsaKind isa, Reg orig) {
        const IsaDescriptor &d = isaDescriptor(isa);
        return std::find(d.callerSaved.begin(), d.callerSaved.end(),
                         orig) != d.callerSaved.end();
    };
    auto paused_at_call = [&](size_t k) {
        return k > 0 || frames[k].blockA->segment > 0;
    };

    // Locate and read a source-side value of frame @p k.
    auto read_value = [&](size_t k, ValueId v) -> uint32_t {
        const Frame &f = frames[k];
        const FuncInfo &fi = _bin.funcInfo(isaA, f.funcId);
        const RelocationMap &mapA = randA.mapFor(f.funcId);
        const VregLoc &loc = fi.vregLoc[v];
        if (!loc.inReg ||
            (caller_saved(isaA, loc.reg) && paused_at_call(k))) {
            return _mem.rawRead32(f.spA +
                                  mapA.mapSlot(fi.slotOf(v)));
        }
        Reg phys = mapA.mapReg(loc.reg);
        if (mapA.regToSlot[phys] != kNotInMemory) {
            return _mem.rawRead32(
                f.spA + static_cast<uint32_t>(
                            mapA.regToSlot[phys]));
        }
        // Walk the save chain from the immediate child toward the
        // top. A child holds frame k's value only if it saved the
        // physical register AND actually clobbers it — a child whose
        // own map relocates @p phys to memory never touches the
        // physical register, so its save slot holds its private
        // register image, not the parent's value; skip it.
        for (size_t j = k; j-- > 0;) {
            const FuncInfo &cfi =
                _bin.funcInfo(isaA, frames[j].funcId);
            const RelocationMap &cmap =
                randA.mapFor(frames[j].funcId);
            if (cmap.regToSlot[phys] != kNotInMemory)
                continue;
            for (size_t i = 0; i < cfi.usedCalleeSaved.size();
                 ++i) {
                if (cmap.mapReg(cfi.usedCalleeSaved[i]) == phys) {
                    return _mem.rawRead32(
                        frames[j].spA +
                        cmap.mapSlot(cfi.calleeSaveBase +
                                     4 * static_cast<uint32_t>(i)));
                }
            }
        }
        return from.state.reg(phys);
    };

    // Place a value into frame @p k on the destination side.
    auto write_value = [&](size_t k, ValueId v, uint32_t value) {
        const Frame &f = frames[k];
        const FuncInfo &fi = _bin.funcInfo(isaB, f.funcId);
        const RelocationMap &mapB = randB.mapFor(f.funcId);
        const VregLoc &loc = fi.vregLoc[v];
        if (!loc.inReg ||
            (caller_saved(isaB, loc.reg) && paused_at_call(k))) {
            _mem.rawWrite32(f.spB + mapB.mapSlot(fi.slotOf(v)),
                            value);
            return;
        }
        Reg phys = mapB.mapReg(loc.reg);
        if (mapB.regToSlot[phys] != kNotInMemory) {
            _mem.rawWrite32(f.spB + static_cast<uint32_t>(
                                        mapB.regToSlot[phys]),
                            value);
            return;
        }
        for (size_t j = k; j-- > 0;) {
            const FuncInfo &cfi =
                _bin.funcInfo(isaB, frames[j].funcId);
            const RelocationMap &cmap =
                randB.mapFor(frames[j].funcId);
            // Mirror of the read side: a child that relocates the
            // physical register to memory neither clobbers nor
            // restores it — keep walking.
            if (cmap.regToSlot[phys] != kNotInMemory)
                continue;
            for (size_t i = 0; i < cfi.usedCalleeSaved.size();
                 ++i) {
                if (cmap.mapReg(cfi.usedCalleeSaved[i]) == phys) {
                    _mem.rawWrite32(
                        frames[j].spB +
                            cmap.mapSlot(cfi.calleeSaveBase +
                                         4 * static_cast<uint32_t>(
                                                 i)),
                        value);
                    return;
                }
            }
        }
        new_state.setReg(phys, value);
    };

    // ---- 4. Transform every frame. ----
    //
    // Source and destination frames overlap in the one guest stack,
    // so all source state is captured first (phase 1) and the
    // destination image written afterwards (phase 2).
    struct PendingValue
    {
        size_t frame;
        ValueId value;
        uint32_t bits;
    };
    struct PendingObject
    {
        size_t frame;
        uint32_t off;
        std::vector<uint8_t> bytes;
    };
    std::vector<PendingValue> pending_values;
    std::vector<PendingObject> pending_objects;
    bool have_ret_value = false;
    Reg ret_reg_b = kNoReg;
    uint32_t ret_value = 0;

    for (size_t k = 0; k < frames.size(); ++k) {
        const Frame &f = frames[k];
        const FuncInfo &fiAf = _bin.funcInfo(isaA, f.funcId);
        ++out.frames;

        // 4a. Fixed frame objects: identical offsets both sides.
        for (size_t i = 0; i < fiAf.frameObjOff.size(); ++i) {
            uint32_t begin = fiAf.frameObjOff[i];
            uint32_t end = (i + 1 < fiAf.frameObjOff.size())
                ? fiAf.frameObjOff[i + 1]
                : fiAf.spillBase;
            PendingObject obj;
            obj.frame = k;
            obj.off = begin;
            obj.bytes.resize(end - begin);
            _mem.rawReadBytes(f.spA + begin, obj.bytes.data(),
                              obj.bytes.size());
            out.objectBytes += end - begin;
            pending_objects.push_back(std::move(obj));
        }

        // 4b. Live values. Interior frames skip the pending call's
        // result (it materializes when the child returns, already in
        // the destination convention).
        for (ValueId v : f.blockA->liveIn) {
            if (k > 0 && f.blockA->entryValueInRetReg == v)
                continue;
            uint32_t value = read_value(k, v);
            if (fiAf.vregStackDerived[v]) {
                if (!fiAf.vregStackSimple[v])
                    return fail("complex frame pointer live");
                value = value - f.spA + f.spB;
                ++out.pointersRebased;
            }
            pending_values.push_back(PendingValue{ k, v, value });
            ++out.valuesMoved;
        }

        // 4c. Top frame at a post-call block: the returned value sits
        // in the source callee's physical return register; hand it to
        // the destination callee's.
        if (k == 0 && f.blockA->entryValueInRetReg != kNoValue) {
            uint32_t callee = kIndirectCallee;
            int prev = fiAf.blockIndexOf(f.blockA->irBlock,
                                         f.blockA->segment - 1);
            if (prev >= 0 &&
                fiAf.blocks[static_cast<size_t>(prev)].endsInCall) {
                callee = _bin.callSites[fiAf.blocks
                                            [static_cast<size_t>(
                                                 prev)]
                                                .callSiteId]
                             .calleeFuncId;
            }
            Reg retA = isaDescriptor(isaA).retReg;
            ret_reg_b = isaDescriptor(isaB).retReg;
            if (callee != kIndirectCallee) {
                if (!randA.usesDefaultConvention(callee))
                    retA = randA.mapFor(callee).retReg;
                if (!randB.usesDefaultConvention(callee))
                    ret_reg_b = randB.mapFor(callee).retReg;
            }
            ret_value = from.state.reg(retA);
            have_ret_value = true;
            ++out.valuesMoved;
        }
    }

    // Phase 2: write the destination image.
    for (const PendingObject &obj : pending_objects) {
        _mem.rawWriteBytes(frames[obj.frame].spB + obj.off,
                           obj.bytes.data(), obj.bytes.size());
    }
    for (const PendingValue &pv : pending_values)
        write_value(pv.frame, pv.value, pv.bits);
    if (have_ret_value)
        new_state.setReg(ret_reg_b, ret_value);
    for (size_t k = 0; k < frames.size(); ++k) {
        const Frame &f = frames[k];
        const FuncInfo &fiBf = _bin.funcInfo(isaB, f.funcId);
        const RelocationMap &mapB = randB.mapFor(f.funcId);
        Addr raB;
        if (f.callSite == nullptr) {
            raB = _bin.startRetAddr[static_cast<size_t>(isaB)];
        } else {
            raB = f.callSite->retAddr[static_cast<size_t>(isaB)];
        }
        _mem.rawWrite32(f.spB + mapB.mapSlot(fiBf.raSlot), raB);
        ++out.raRewrites;
    }

    // ---- 5. Commit. ----
    const FuncInfo &fiB = _bin.funcInfo(isaB, fiA->funcId);
    int idxB =
        fiB.blockIndexOf(top_block->irBlock, top_block->segment);
    if (idxB < 0)
        return fail("no destination equivalence point");
    new_state.pc = fiB.blocks[static_cast<size_t>(idxB)].start;
    new_state.setSp(frames.front().spB);
    to.state = new_state;

    out.ok = true;
    out.resumePc = new_state.pc;
    out.microseconds = _cost.microseconds(out, isaB);
    return out;
}

} // namespace hipstr
