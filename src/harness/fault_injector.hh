/**
 * @file
 * Deterministic fault injection for scenario runs.
 *
 * The injector owns the scenario's fault schedule and the mechanics
 * of making each fault happen at exactly the declared (phase, point)
 * coordinate, with corruption content derived from the scenario seed
 * — the same spec + seed always injects the same bytes, which is what
 * lets a baseline pin down "3 faults injected, 3 recovered" as an
 * exact-compare metric.
 *
 * Checkpoint faults go through the io::FaultHooks seam
 * (src/io/serialize.hh): armCorruptRead() installs a read hook that
 * flips bits in / truncates the artifact bytes the next time the
 * target path is read (every time, for persistent faults);
 * armTornWrite() installs a write hook that cuts the next write of
 * the target path at half its bytes, which together with the atomic
 * temp-file+rename save protocol must leave the previous artifact
 * intact. The runner arms before the save/load of the cycle the fault
 * is pinned to and disarms right after — the hooks are process-global,
 * so exactly one site holds them at a time.
 *
 * Every outcome settles here, into the counts and the journal:
 * fired() counts a fault that fired and journals `fault_injected`
 * (an armed checkpoint hook counts itself when it fires); settle()
 * counts a fault the serving stack survived (retry succeeded,
 * degradation path held, rejection was clean) and journals
 * `fault_recovered`, or journals `fault_unrecovered`. A run with
 * injected() != recovered() is the harness's "fault unrecovered"
 * outcome — distinct exit code, CI-visible.
 */

#ifndef TWOINONE_HARNESS_FAULT_INJECTOR_HH
#define TWOINONE_HARNESS_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/event_journal.hh"
#include "harness/scenario.hh"

namespace twoinone {
namespace harness {

class FaultInjector
{
  public:
    /** @p journal receives the fault events; it must outlive the
     * injector. */
    FaultInjector(std::vector<FaultSpec> faults, uint64_t seed,
                  EventJournal &journal);

    /** Clears any armed io hooks. */
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Faults scheduled at (phase, point), in declaration order. */
    std::vector<const FaultSpec *> at(int phase, int point) const;

    /** The fault of @p type scheduled at (phase, point), or null (a
     * valid spec has at most one). */
    const FaultSpec *find(const std::string &type, int phase,
                          int point) const;

    /**
     * Arm a read-corruption hook for @p fault against artifact
     * @p path: the next read of that path has its bytes corrupted
     * (bitflip or truncate per the spec); persistent faults corrupt
     * every subsequent read until disarm(). Counts one injection per
     * corrupted read, at most one per arming.
     */
    void armCorruptRead(const FaultSpec &fault, const std::string &path);

    /**
     * Arm a torn-write hook against artifact @p path: the next write
     * of that path stops after half its bytes and surfaces
     * io::CheckpointError to the writer.
     */
    void armTornWrite(const std::string &path);

    /** Remove any armed io hooks (idempotent). */
    void disarm();

    /** Count a fault that fired outside the io-hook path and journal
     * @p detail as `fault_injected`. */
    void fired(Json detail);

    /** Settle a fired fault: when @p recovered, count it and journal
     * @p detail as @p recoveredAs (a malformed request's clean
     * rejection is a `request_rejected`); otherwise journal it as
     * `fault_unrecovered`. */
    void settle(Json detail, bool recovered,
                const char *recoveredAs = "fault_recovered");

    /** Faults that actually fired. */
    uint64_t injected() const { return *injected_; }
    /** Faults the stack survived. */
    uint64_t recovered() const { return recovered_; }

  private:
    std::vector<FaultSpec> faults_;
    uint64_t seed_;
    EventJournal &journal_;
    /** Shared with the armed hook closures: a hook can fire while the
     * runner is mid-load, and the count must land here. */
    std::shared_ptr<uint64_t> injected_;
    uint64_t recovered_ = 0;
    bool armed_ = false;
};

/** Corrupt @p bytes in place per the fault spec: flip `flips` bits at
 * seed-deterministic positions, or truncate to half. Exposed for
 * tests. */
void corruptBytes(std::vector<uint8_t> &bytes, const FaultSpec &fault,
                  uint64_t seed);

} // namespace harness
} // namespace twoinone

#endif // TWOINONE_HARNESS_FAULT_INJECTOR_HH
