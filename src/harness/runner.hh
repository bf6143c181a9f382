/**
 * @file
 * ScenarioRunner: executes one validated scenario spec end to end and
 * emits its evidence bundle.
 *
 * A run stands up the declared model (build → optional RPS
 * adversarial training → calibration), persists it, deploys it
 * through Session::fromCheckpoint (the same artifact-load path
 * production takes, retry budget included), serves it as a tenant of
 * a serve::Server, then drives the declared traffic phases against it
 * while the FaultInjector fires the scheduled faults. Everything observable lands in the
 * bundle directory:
 *
 *   <out>/<scenario-name>/
 *     run.json      — harness format version + the spec echo
 *     events.jsonl  — seq-numbered deterministic event journal
 *     metrics.json  — counts / digests / accuracy / timing summary
 *     model.ckpt    — the served artifact (soak cycles re-save it)
 *
 * Determinism contract: with a fixed spec + seed, counts, digests and
 * the precision trace are identical on every rerun, and events.jsonl
 * is byte-identical on the same machine (accuracy-bearing events
 * depend on float results, which vary across -march=native hosts —
 * baselines therefore exact-compare only the machine-independent
 * keys and tolerance-compare accuracies).
 *
 * Graceful-degradation contract: every injected fault must be
 * survived — a clean rejection, a successful retry, or an explicit
 * degradation (soak reload fails persistently → the previous session
 * keeps serving). RunResult::faultsRecovered reports whether that
 * held; the driver maps a violation to its own exit code.
 */

#ifndef TWOINONE_HARNESS_RUNNER_HH
#define TWOINONE_HARNESS_RUNNER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "data/synthetic.hh"
#include "harness/event_journal.hh"
#include "harness/fault_injector.hh"
#include "harness/scenario.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "tune/autotuner.hh"

namespace twoinone {
namespace harness {

struct RunResult
{
    Json metrics;           ///< the metrics.json document
    std::string bundleDir;  ///< evidence bundle directory
    std::string metricsPath;///< bundleDir + "/metrics.json"
    bool faultsRecovered = true; ///< injected == recovered
};

class ScenarioRunner
{
  public:
    ScenarioRunner(ScenarioSpec spec, std::string outDir);

    /** Execute the scenario and write the evidence bundle. Throws
     * io::CheckpointError / serve::ServeError only for failures the
     * harness did not inject (those are run bugs, not scenario
     * outcomes). */
    RunResult run();

    /** Stand the scenario's model up (train / calibrate / deploy)
     * and run the serving autotuner only — no traffic phases. The
     * spec's tuning block supplies the budget when present (the
     * defaults otherwise); with apply the bundle's model.ckpt is
     * re-saved with the winner embedded. Backs the `twoinone-bench
     * tune` subcommand. */
    tune::TuneResult tuneOnly();

    /** The evidence-bundle directory this runner writes into. */
    const std::string &bundleDir() const { return bundle_; }

  private:
    void setUp();
    void deploySession();
    Session loadSession();

    /** Run tune::autotune on the deployed session per the spec's
     * tuning block, journal the selection, and (with apply) re-save +
     * reload so traffic serves under the winner. */
    tune::TuneResult runTuning();

    void runPhase(int index);
    void steadyPoint(int phase, int point, int nRequests,
                     int rowsPerRequest);
    void adversarialPoint(int phase, int point, const PhaseSpec &ps);
    void soakCycle(int phase, int cycle, const PhaseSpec &ps);

    /** Serve @p xs in order through the Server (round-robin over the
     * tenant sessions, then flush) and return each request's logits
     * (empty tensor for a shed request). @p starved holds a
     * ScopedSerial guard across the submits and the flush. */
    std::vector<Tensor> serveRequests(std::vector<Tensor> xs,
                                      bool starved);

    /** (Re)build the Server over the live session: tenant 0 is the
     * deployed session, tenants 1..n-1 attach to its network sharing
     * its engine. Called at deploy and after a reload replaces the
     * session. */
    void rebuildServer();

    /** Tear down the Server and its tenant sessions (before the
     * session they reference is replaced). */
    void teardownServer();

    /** Fire the faults scheduled at (phase, point). Checkpoint faults
     * arm and fire later, at the cycle's save/load. */
    void applyFaults(int phase, int point);
    void injectMalformedRequest(const FaultSpec &f, int phase,
                                int point);
    void saveCheckpoint(int phase, int point);
    void reloadSession(int phase, int point);

    /** Next @p rows consecutive test rows (wraps, never straddles). */
    Dataset takeBatch(int rows);
    /** Fold the Server's stats + traces and the live engine's
     * counters into the accumulators (before replacing the session
     * or finishing). */
    void foldSession();
    /** Precisions sampled since the last journal mark. */
    Json traceDelta();

    Json buildMetrics();

    ScenarioSpec spec_;
    std::string outDir_;
    std::string bundle_;
    std::string ckptPath_;

    std::unique_ptr<EventJournal> journal_;
    std::unique_ptr<FaultInjector> injector_;
    std::optional<Session> session_;
    DatasetPair data_;
    Rng attackRng_;

    /** @name Serving
     * The Server's time source is a ManualClock the runner never
     * advances: age closes and deadline expiries cannot fire on wall
     * time, so batch composition — and every journaled count and
     * digest — is a pure function of the spec + seed. */
    /** @{ */
    ManualClock clock_;
    std::vector<Session> extraTenants_; ///< tenants 1..n-1
    /** Declared after the tenants so the default destructor stops the
     * Server before any session it references dies. */
    std::unique_ptr<serve::Server> server_;
    std::vector<serve::Server::TenantId> tenantIds_;
    std::vector<size_t> tenantTraceMarks_; ///< journaled trace prefix
    /** @} */

    int cursor_ = 0; ///< test-set traffic cursor

    // Pending checkpoint faults (armed at the next save / load).
    const FaultSpec *pendingTorn_ = nullptr;
    const FaultSpec *pendingCorrupt_ = nullptr;
    bool starveNextPoint_ = false;

    // Accumulators across session replacements.
    uint64_t accRequests_ = 0, accRows_ = 0, accBatches_ = 0;
    uint64_t accRejected_ = 0, accShed_ = 0, accRebuilds_ = 0;
    double accWall_ = 0.0;
    std::vector<int> trace_;

    // Run counters.
    uint64_t ckptSaves_ = 0, ckptLoads_ = 0, loadRetries_ = 0;
    uint64_t cacheStorms_ = 0, degraded_ = 0;
    /** @name Byte-budgeted cache (session.stream / cache_budget_pct /
     * memory_pressure faults). Eviction and hydration totals fold
     * across session replacements like column_rebuilds; the metric
     * keys appear only when one of those features is active, so
     * scenarios predating them keep their baseline key sets. */
    /** @{ */
    uint64_t memPressure_ = 0;
    uint64_t accEvictions_ = 0, accHydrations_ = 0;
    /** @} */
    /** @name Autotuner outcome (metrics "tuning" section)
     * Candidate/evaluation counts and the winner depend on float cost
     * ordering, so baselines treat the section like timing: present,
     * never exact-compared across machines. */
    /** @{ */
    bool tuned_ = false, tuneApplied_ = false;
    uint64_t tuneCandidates_ = 0, tuneEvaluated_ = 0;
    double tuneMeanErrPct_ = 0.0, tunePredictedCost_ = 0.0;
    std::string tuneSelected_;
    /** @} */
    uint64_t natCorrect_ = 0, natTotal_ = 0;
    uint64_t robCorrect_ = 0, robTotal_ = 0;
};

/** mkdir -p equivalent (panics on a non-directory collision). */
void ensureDir(const std::string &path);

/** Write @p text to @p path (plain stream — io fault hooks must not
 * see bundle artifacts). */
void writeTextFile(const std::string &path, const std::string &text);

} // namespace harness
} // namespace twoinone

#endif // TWOINONE_HARNESS_RUNNER_HH
