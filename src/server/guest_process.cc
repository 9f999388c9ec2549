#include "guest_process.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "binary/loader.hh"
#include "isa/codec.hh"
#include "migration/safety.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Scratch area for staged hijacks, inside the guest stack region. */
constexpr Addr kHijackSp = layout::kStackTop - 0x8000;

} // namespace

const char *
procStateName(ProcState s)
{
    switch (s) {
      case ProcState::Ready: return "Ready";
      case ProcState::Running: return "Running";
      case ProcState::Blocked: return "Blocked";
      case ProcState::Crashed: return "Crashed";
      case ProcState::Exited: return "Exited";
    }
    return "?";
}

GuestProcess::GuestProcess(const FatBinary &bin,
                           const GuestProcessConfig &cfg)
    : _bin(bin), _cfg(cfg)
{
    loadFatBinary(bin, _mem);
    _os.setOutputCap(cfg.outputCap);

    HipstrConfig hcfg = cfg.hipstr;
    // Independent, reproducible randomness per process: the PSR and
    // policy streams are SplitMix64 folds of (seed, pid). Respawns
    // advance the randomizer generation on top of this base seed.
    uint64_t s = cfg.seed + 0x9e3779b97f4a7c15ull * (cfg.pid + 1);
    hcfg.psr.seed = splitMix64(s);
    hcfg.policySeed = splitMix64(s);
    if (cfg.alternateStartIsa && (cfg.pid & 1))
        hcfg.startIsa = otherIsa(hcfg.startIsa);

    _runtime = std::make_unique<HipstrRuntime>(bin, _mem, _os, hcfg);
    _runtime->reset();
}

void
GuestProcess::beginService(uint64_t insts)
{
    hipstr_assert(_state == ProcState::Blocked);
    hipstr_assert(insts > 0);
    _serviceRemaining = insts;
    _state = ProcState::Ready;
}

void
GuestProcess::stageInjectedFault(const QuantumFault &f)
{
    ++_stats.faultsInjected[static_cast<size_t>(f.kind)];
    switch (f.kind) {
      case FaultKind::BitFlip: {
        // Single-event upset somewhere in the mutable image. The run
        // may crash (MemFault soon after), silently corrupt output,
        // or shrug it off — all three are realistic outcomes.
        constexpr Addr span = layout::kStackTop - layout::kDataBase;
        const Addr a =
            layout::kDataBase + static_cast<Addr>(f.payload % span);
        const uint8_t bit = (f.payload >> 32) & 7;
        _mem.rawWrite8(a, _mem.rawRead8(a) ^ (uint8_t(1) << bit));
        // The generation's output can no longer be checksum-verified.
        _tainted = true;
        _pendingKind = FaultKind::BitFlip;
        break;
      }
      case FaultKind::DecodeFault:
        _runtime->vm(isa()).armDecodeFault();
        _pendingKind = FaultKind::DecodeFault;
        break;
      case FaultKind::CacheFlush:
        _runtime->vm(isa()).flushTranslations();
        break;
      case FaultKind::TransformAbort:
        _runtime->abortNextTransform();
        break;
      case FaultKind::Wedge:
        _wedgeRemaining = _cfg.faultPlan->wedgeLength(f.payload);
        break;
      default:
        break;
    }
}

QuantumResult
GuestProcess::runQuantum(uint64_t maxInsts)
{
    hipstr_assert(_state == ProcState::Ready);
    _state = ProcState::Running;
    ++_stats.quanta;

    if (_cfg.faultPlan != nullptr && _wedgeRemaining == 0) {
        QuantumFault f = _cfg.faultPlan->quantumFault(
            _cfg.pid, _quantumSerial++);
        if (f.kind != FaultKind::None)
            stageInjectedFault(f);
    }

    if (_wedgeRemaining > 0) {
        // Wedged: the quantum burns its timeslice without retiring a
        // single guest instruction and without consuming service
        // budget — from the scheduler's view the worker is livelocked.
        --_wedgeRemaining;
        ++_stats.wedgedQuanta;
        ++_wedgeStreak;
        QuantumResult q;
        q.reason = VmStop::StepLimit;
        q.stopPc = _runtime->vm(isa()).state.pc;
        q.ran = 0;
        _lastMigrated = false;
        if (_cfg.watchdogQuanta != 0 &&
            _wedgeStreak >= _cfg.watchdogQuanta) {
            ++_stats.crashes;
            ++_stats.watchdogKills;
            _lastFault = FaultInfo{
                FaultKind::Watchdog, q.stopPc, isa(),
                static_cast<uint32_t>(
                    _runtime->vm(isa()).randomizer().generation())
            };
            _wedgeRemaining = 0;
            _wedgeStreak = 0;
            _state = ProcState::Crashed;
        } else {
            _state = ProcState::Ready;
        }
        return q;
    }
    _wedgeStreak = 0;

    uint64_t slice = std::min(maxInsts, _serviceRemaining);
    QuantumResult q = _runtime->runQuantum(slice);
    _serviceRemaining -= std::min<uint64_t>(q.ran, _serviceRemaining);
    _lastMigrated = q.migrated;

    switch (q.reason) {
      case VmStop::Exited:
      case VmStop::Halted:
        ++_stats.programsCompleted;
        if (_haveExpected && !_tainted &&
            _os.outputChecksum() != _expectedChecksum) {
            ++_stats.checksumMismatches;
        }
        if (_cfg.restartOnExit) {
            restartProgram();
            _state = _serviceRemaining > 0 ? ProcState::Ready
                                           : ProcState::Blocked;
        } else {
            _state = ProcState::Exited;
        }
        break;

      case VmStop::Fault:
      case VmStop::BadInst:
      case VmStop::SfiViolation:
        ++_stats.crashes;
        _lastFault = _runtime->summary().fault;
        // Attribute crashes that follow an injection to the injected
        // kind — a tripped decode fault is a DecodeFault, not the raw
        // BadInst the VM observed.
        if (_pendingKind != FaultKind::None)
            _lastFault.kind = _pendingKind;
        _state = ProcState::Crashed;
        break;

      case VmStop::MigrationRequested:
        // The runtime already switched VMs; the scheduler must requeue
        // us onto a core of the new isa().
        _state = _serviceRemaining > 0 ? ProcState::Ready
                                       : ProcState::Blocked;
        break;

      case VmStop::StepLimit:
        _state = _serviceRemaining > 0 ? ProcState::Ready
                                       : ProcState::Blocked;
        break;
    }
    return q;
}

void
GuestProcess::respawnImage()
{
    foldSummary();
    ++_stats.respawns;

    // Pristine address space: wipe everything mutable (data, heap,
    // stack) and reload the image. zeroRange writes only the pages
    // this generation dirtied. The VM cache regions are rebuilt by
    // reRandomize()'s flush.
    _mem.zeroRange(layout::kDataBase,
                   layout::kStackTop - layout::kDataBase);
    loadFatBinary(_bin, _mem);
    _os.reset();
    for (IsaKind isa : kAllIsas) {
        _runtime->vm(isa).disarmDecodeFault();
        _runtime->vm(isa).reRandomize();
    }
    _runtime->reset();
    _tainted = false;
    _pendingKind = FaultKind::None;
    _wedgeRemaining = 0;
    _wedgeStreak = 0;
    _state = _serviceRemaining > 0 ? ProcState::Ready
                                   : ProcState::Blocked;
}

void
GuestProcess::respawn()
{
    hipstr_assert(_state == ProcState::Crashed);
    respawnImage();
}

bool
GuestProcess::relocateToIsa(IsaKind target, uint64_t search_budget)
{
    if (isa() == target)
        return true;
    MigrationOutcome mo = _runtime->forceMigration(search_budget);
    if (mo.ok && isa() == target) {
        ++_stats.emergencyRelocations;
        return true;
    }
    // No migration-safe point reachable (or the program stopped mid-
    // search): hard evacuation. Respawn directly onto the surviving
    // ISA — program state is lost, the in-flight request's budget
    // carries over to the fresh worker.
    setStartIsa(target);
    respawnImage();
    return false;
}

void
GuestProcess::restartProgram()
{
    foldSummary();
    _os.reset();
    _runtime->reset();
    _tainted = false;
    _pendingKind = FaultKind::None;
}

void
GuestProcess::foldSummary()
{
    const HipstrRunSummary &s = _runtime->summary();
    _stats.guestInsts += s.totalGuestInsts;
    for (size_t i = 0; i < kNumIsas; ++i)
        _stats.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
    _stats.migrations += s.migrations;
    _stats.migrationsDenied += s.migrationsDenied;
    _stats.transformAborts += s.transformAborts;
    _stats.migrationsSuppressed += s.migrationsSuppressed;
    // foldSummary runs immediately before the GuestOs reset that
    // starts the next program generation, so each generation's bytes
    // are accrued exactly once.
    _stats.outputBytes += _os.totalOutputBytes();
}

GuestProcessStats
GuestProcess::stats() const
{
    GuestProcessStats out = _stats;
    const HipstrRunSummary &s = _runtime->summary();
    out.guestInsts += s.totalGuestInsts;
    for (size_t i = 0; i < kNumIsas; ++i)
        out.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
    out.migrations += s.migrations;
    out.migrationsDenied += s.migrationsDenied;
    out.transformAborts += s.transformAborts;
    out.migrationsSuppressed += s.migrationsSuppressed;
    out.outputBytes += _os.totalOutputBytes();
    out.phases = _runtime->phaseBreakdown();
    return out;
}

uint64_t
GuestProcess::securityEvents() const
{
    uint64_t total = 0;
    for (IsaKind isa : kAllIsas) {
        const HipstrRuntime &rt = *_runtime;
        total += rt.vm(isa).stats.securityEvents;
    }
    return total;
}

uint64_t
GuestProcess::statsSignature() const
{
    GuestProcessStats s = stats();
    uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    fold(_cfg.pid);
    fold(s.guestInsts);
    fold(s.guestInstsPerIsa[0]);
    fold(s.guestInstsPerIsa[1]);
    fold(s.quanta);
    fold(s.migrations);
    fold(s.migrationsDenied);
    fold(s.crashes);
    fold(s.respawns);
    fold(s.programsCompleted);
    fold(s.checksumMismatches);
    fold(securityEvents());
    fold(_os.outputChecksum());
    fold(s.outputBytes);
    return h;
}

Addr
GuestProcess::findRetAddr(const FuncInfo &fi) const
{
    Addr pc = fi.entry;
    const Addr end = fi.entry + fi.codeSize;
    MachInst mi;
    while (pc < end && decodeInst(isa(), _mem, pc, mi)) {
        if (mi.op == Op::Ret)
            return pc;
        pc += mi.size;
    }
    return 0;
}

bool
GuestProcess::stageHijack(Addr target, bool build_frame,
                          uint32_t frame_func)
{
    const IsaKind cur = isa();
    PsrVm &vm = _runtime->vm(cur);

    // A one-instruction "ret gadget": dispatching it pops our planted
    // word off the stack, exactly the control-transfer primitive a
    // real stack smash yields.
    const FuncInfo *gadget_func = nullptr;
    Addr ret_at = 0;
    for (const FuncInfo &fi : _bin.funcsFor(cur)) {
        ret_at = findRetAddr(fi);
        if (ret_at != 0) {
            gadget_func = &fi;
            break;
        }
    }
    if (gadget_func == nullptr)
        return false;

    _mem.rawWrite32(kHijackSp, target);
    if (build_frame) {
        // The word above the planted return is where execution lands:
        // give the migration engine a coherent single frame for the
        // target's function — zeroed locals and the outermost-frame
        // sentinel in the (randomized) return-address slot — so the
        // cross-ISA stack transformation can genuinely run.
        const RelocationMap &map =
            vm.randomizer().mapFor(frame_func);
        const FuncInfo &fi = _bin.funcInfo(cur, frame_func);
        const Addr frame_base = kHijackSp + 4;
        _mem.zeroRange(frame_base, map.newFrameSize + 64);
        _mem.rawWrite32(frame_base + map.mapSlot(fi.raSlot),
                        _bin.startRetAddr[static_cast<size_t>(cur)]);
    }
    vm.state.setSp(kHijackSp);
    vm.state.pc = ret_at;
    _tainted = true;
    ++_stats.probesStaged;
    return true;
}

bool
GuestProcess::injectAttackProbe(uint64_t nonce)
{
    hipstr_assert(_state == ProcState::Ready);
    const IsaKind cur = isa();
    PsrVm &vm = _runtime->vm(cur);

    // Candidate landing sites: cold (not yet translated — the ret
    // into them misses the code cache and raises the security event),
    // migration-safe block starts that are not function entries and
    // not post-call resume points (segment 0 blocks are never Return
    // Address Table keys, so the RAT cannot swallow the event).
    struct Candidate
    {
        uint32_t funcId;
        Addr addr;
    };
    std::vector<Candidate> candidates;
    for (const FuncInfo &fi : _bin.funcsFor(cur)) {
        for (const MachBlockInfo &b : fi.blocks) {
            if (b.segment != 0 || b.start == fi.entry)
                continue;
            // wasTranslated (not a raw cache probe): after a
            // checkpoint restore the cache is cold but vetted
            // addresses will translate silently, so they are not
            // usable landing sites — exactly as in the unbroken run.
            if (vm.wasTranslated(b.start))
                continue;
            if (!isMigrationPoint(_bin, cur, b.start,
                                  MigrationSafety::OnDemandSafe))
                continue;
            candidates.push_back(Candidate{ fi.funcId, b.start });
        }
    }
    if (candidates.empty())
        return false;

    const Candidate &c =
        candidates[static_cast<size_t>(nonce % candidates.size())];
    return stageHijack(c.addr, /*build_frame=*/true, c.funcId);
}

void
GuestProcess::saveState(ByteWriter &w) const
{
    hipstr_assert(_state != ProcState::Running);
    hipstr_assert(!_mem.journaling());

    w.u32(_cfg.pid);
    w.u8(uint8_t(_state));
    w.u64(_serviceRemaining);
    w.boolean(_lastMigrated);
    w.boolean(_tainted);
    w.u64(_expectedChecksum);
    w.boolean(_haveExpected);

    w.u64(_stats.guestInsts);
    for (uint64_t g : _stats.guestInstsPerIsa)
        w.u64(g);
    w.u64(_stats.quanta);
    w.u32(_stats.migrations);
    w.u32(_stats.migrationsDenied);
    w.u32(_stats.crashes);
    w.u32(_stats.respawns);
    w.u32(_stats.programsCompleted);
    w.u32(_stats.checksumMismatches);
    w.u32(_stats.probesStaged);
    w.u64(_stats.outputBytes);
    for (uint64_t f : _stats.faultsInjected)
        w.u64(f);
    w.u64(_stats.wedgedQuanta);
    w.u32(_stats.watchdogKills);
    w.u32(_stats.transformAborts);
    w.u32(_stats.migrationsSuppressed);
    w.u32(_stats.emergencyRelocations);

    w.u64(_quantumSerial);
    w.u32(_wedgeRemaining);
    w.u32(_wedgeStreak);
    w.u8(uint8_t(_lastFault.kind));
    w.u32(_lastFault.pc);
    w.u8(uint8_t(_lastFault.isa));
    w.u32(_lastFault.generation);
    w.u8(uint8_t(_pendingKind));

    _os.saveState(w);
    _runtime->saveState(w);

    // Mutable guest image [kDataBase, kStackTop): data, heap, stack.
    // The code sections below kDataBase are reproduced by the loader
    // at construction; the cache regions above kStackTop rebuild
    // cold. Zero pages are skipped — a worker touches a small
    // fraction of its 8 MiB image. A clean page in Memory's dirty map
    // is zero by construction, so only dirty pages are compared; the
    // memcmp drops the dirty ones that hold only zeros again (a
    // zeroed frame, a partly cleared buffer), which keeps the stream
    // byte-identical to a scan of every page.
    constexpr uint32_t kPage = Memory::kPageBytes;
    constexpr Addr lo = layout::kDataBase;
    constexpr Addr hi = layout::kStackTop;
    static constexpr std::array<uint8_t, kPage> kZeroPage{};
    const uint8_t *bytes = _mem.data();
    for (Addr page = lo; page < hi; page += kPage) {
        if (!_mem.pageDirty(page))
            continue;
        const uint8_t *p = bytes + page;
        if (std::memcmp(p, kZeroPage.data(), kPage) == 0)
            continue;
        w.u32(page);
        w.bytes(p, kPage);
    }
    w.u32(0xffffffffu); // page-stream terminator
}

void
GuestProcess::loadState(ByteReader &r)
{
    hipstr_assert(_state != ProcState::Running);
    hipstr_assert(!_mem.journaling());

    uint32_t pid = r.u32();
    if (pid != _cfg.pid)
        throw SerializeError(SerializeErrc::Corrupt,
                             "checkpoint pid mismatch");
    _state = ProcState(r.u8());
    _serviceRemaining = r.u64();
    _lastMigrated = r.boolean();
    _tainted = r.boolean();
    _expectedChecksum = r.u64();
    _haveExpected = r.boolean();

    _stats.guestInsts = r.u64();
    for (uint64_t &g : _stats.guestInstsPerIsa)
        g = r.u64();
    _stats.quanta = r.u64();
    _stats.migrations = r.u32();
    _stats.migrationsDenied = r.u32();
    _stats.crashes = r.u32();
    _stats.respawns = r.u32();
    _stats.programsCompleted = r.u32();
    _stats.checksumMismatches = r.u32();
    _stats.probesStaged = r.u32();
    _stats.outputBytes = r.u64();
    for (uint64_t &f : _stats.faultsInjected)
        f = r.u64();
    _stats.wedgedQuanta = r.u64();
    _stats.watchdogKills = r.u32();
    _stats.transformAborts = r.u32();
    _stats.migrationsSuppressed = r.u32();
    _stats.emergencyRelocations = r.u32();

    _quantumSerial = r.u64();
    _wedgeRemaining = r.u32();
    _wedgeStreak = r.u32();
    _lastFault.kind = FaultKind(r.u8());
    _lastFault.pc = r.u32();
    _lastFault.isa = IsaKind(r.u8());
    _lastFault.generation = r.u32();
    _pendingKind = FaultKind(r.u8());

    _os.loadState(r);
    _runtime->loadState(r);

    // zeroRange visits only the pages this process dirtied.
    constexpr uint32_t kPage = Memory::kPageBytes;
    constexpr Addr lo = layout::kDataBase;
    constexpr Addr hi = layout::kStackTop;
    _mem.zeroRange(lo, hi - lo);
    for (;;) {
        uint32_t page = r.u32();
        if (page == 0xffffffffu)
            break;
        if (page < lo || page >= hi || page % kPage != 0)
            throw SerializeError(SerializeErrc::Corrupt,
                                 "checkpoint page out of range");
        std::array<uint8_t, kPage> buf;
        r.bytes(buf.data(), kPage);
        _mem.rawWriteBytes(page, buf.data(), kPage);
    }
}

bool
GuestProcess::injectCorruption(uint64_t nonce)
{
    hipstr_assert(_state == ProcState::Ready);
    // Return into the VM's own code cache: the SFI check terminates
    // the process (Section 5.1). Vary the exact cache offset by nonce
    // so repeated probes are distinguishable in traces.
    Addr target = layout::cacheBase(isa()) + 64 +
        static_cast<Addr>((nonce % 16) * 4);
    return stageHijack(target, /*build_frame=*/false, 0);
}

} // namespace hipstr
