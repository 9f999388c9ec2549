/**
 * @file
 * Layer probes for the traced run, and the harvest of the public VM
 * counters. A probe times one layer's entry point in isolation, on
 * the workload's own programs, after the measured passes; it never
 * runs in an untraced run. Each probe adds its result to the tracer
 * counter named like the per-layer metric it feeds.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "binary/fatbin.hh"
#include "server/protected_server.hh"
#include "trace.hh"
#include "vm/psr_vm.hh"

namespace perfbench
{

using Programs = std::vector<const hipstr::FatBinary *>;

/** isa.decode_ns: decodeInst at every code byte address, both ISAs. */
void probeDecode(Tracer &t, const Programs &bins);

/** core.translate_ns_per_inst and core.translate_units:
 *  PsrTranslator::translate at every function entry, both ISAs, under
 *  freshly generated relocation maps. */
void probeTranslate(Tracer &t, OpsLedger &ops, const Programs &bins,
                    uint64_t seed);

/** core.mapgen_us: Randomizer::reRandomize plus a map for every
 *  function, per (program, ISA). */
void probeMapgen(Tracer &t, const Programs &bins, uint64_t seed);

/** vm.cold_run_ms, vm.warm_run_ms, vm.rewarm_ratio: PsrVm::run to
 *  exit right after reRandomize(), then again with warm caches. */
void probeRewarm(Tracer &t, OpsLedger &ops, const Programs &bins,
                 uint64_t seed);

/** migration.transform_us: HipstrRuntime::forceMigration at seeded
 *  points, both directions. */
void probeMigration(Tracer &t, OpsLedger &ops, const Programs &bins,
                    uint64_t seed);

/** server.respawn_ms: GuestProcess::respawn after a staged crash. */
void probeRespawn(Tracer &t, OpsLedger &ops,
                  const hipstr::FatBinary &bin,
                  const hipstr::ServerConfig &cfg);

/** Every probe above that needs only programs: decode, translate,
 *  map generation, rewarm and migration, on seeds derived from
 *  @p seed. */
void probeLayers(Tracer &t, OpsLedger &ops, const Programs &bins,
                 uint64_t seed);

/** Add one VM's public counters to the vm.* and jit.* counters. */
void harvestVm(Tracer *t, const hipstr::PsrVm &vm);

/** harvestVm over both VMs of every worker of @p srv, plus the
 *  scheduler's quanta into server.quanta. */
void harvestServer(Tracer *t, const hipstr::ProtectedServer &srv);

/** Guest output checksum of one reference-interpreter run to exit
 *  (0 with @p ok false when the run does not exit cleanly); the
 *  instructions it retired go to @p insts when given. */
uint64_t referenceChecksum(const hipstr::FatBinary &bin,
                           hipstr::IsaKind isa, bool &ok,
                           uint64_t *insts = nullptr);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
