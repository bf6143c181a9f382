/**
 * @file
 * Declarative scenario specs for the robustness harness.
 *
 * A scenario is a JSON document describing one deterministic run
 * against a deployed twoinone::Session: the model and synthetic
 * dataset to stand up, the serving configuration, an ordered list of
 * traffic phases (steady / bursty / adversarial with live EPGD attack
 * measurement / soak with periodic checkpoint save-reload cycles),
 * and a list of deterministic fault injections pinned to points
 * inside those phases. parseScenario() validates the whole document
 * before anything runs: an unknown key, a missing required field, or
 * an out-of-range value throws SpecError with the JSON path of the
 * offending node ("$.phases[2].batches: ...") — one actionable line,
 * never a stack trace. The driver maps SpecError to its own exit
 * code so CI can tell "your spec is wrong" from "your run regressed".
 */

#ifndef TWOINONE_HARNESS_SCENARIO_HH
#define TWOINONE_HARNESS_SCENARIO_HH

#include <string>
#include <vector>

#include "harness/json.hh"

namespace twoinone {
namespace harness {

/** A scenario document failed validation. path() is the JSON path of
 * the offending node ("$", "$.model.arch", "$.faults[1].at"). */
class SpecError : public std::runtime_error
{
  public:
    SpecError(std::string path, const std::string &what)
        : std::runtime_error(path + ": " + what),
          path_(std::move(path))
    {
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Model + dataset stood up for the run. */
struct ModelSpec
{
    std::string arch = "convnet_tiny"; ///< convnet_tiny | preact_mini
                                       ///< | wide_mini
    int baseWidth = 4;
    std::vector<int> precisions;  ///< empty = rps4to16
    int trainEpochs = 0;          ///< quick PGD-free natural epochs
    std::string trainMethod = "natural"; ///< natural|fgsm|pgd7|free
    int calibrateBatches = 0;     ///< static-scale calibration batches
};

struct DataSpec
{
    int classes = 10;
    int size = 8; ///< square image side
    int train = 128;
    int test = 64;
};

struct ServingSpec
{
    int maxBatch = 32;
    int microBatch = 8;
    std::string mode = "quantized"; ///< quantized | float
    int replicas = 0;
    bool lazyWarmup = true;
    /** Admit the multi-tenant and timing keys below (sessions,
     * max_delay_us, deadline_us, policy). Every scenario serves
     * through serve::Server either way; the flag is echoed in the
     * session_deploy event. */
    bool async = false;
    /** Tenant sessions multiplexed over the model (async only;
     * tenants share the engine, round-robin traffic). */
    int sessions = 1;
    /** Async batch-age close (ManualClock microseconds; 0 = close
     * partial batches only on flush). */
    int maxDelayUs = 0;
    /** Per-request deadline (ManualClock microseconds; 0 = none). */
    int deadlineUs = 0;
    /** Async batch-picking policy across tenants. */
    std::string policy = "round_robin"; ///< round_robin | edf
    /** Precision draw distribution for served batches (empty =
     * uniform over the model's candidate set, bit-identical to specs
     * predating the keys). */
    std::vector<int> drawBits;
    std::vector<double> drawWeights;
};

/** Serving-autotuner block: when present, the runner tunes the
 * deployed session (tune::autotune) after deployment and before the
 * traffic phases, journaling the selected genome. */
struct TuningSpec
{
    bool enabled = false; ///< set by the presence of the block
    int cycles = 3;
    int population = 8;
    /** Rows per measured probe batch (0 = analytical only — no
     * measured runs, no error report). */
    int probeRequests = 8;
    /** Re-save the artifact with the winner embedded and reload the
     * session through Session::fromCheckpoint, so the traffic phases
     * serve under the autotuned configuration. */
    bool apply = false;
};

struct SessionSpec
{
    int loadRetries = 1;
    int retryBackoffMs = 0;
    /** Load the artifact's engine cells lazily, per (layer,
     * precision) on first install (SessionConfig::streamArtifact),
     * instead of all at load. */
    bool stream = false;
    /** Engine-cache byte budget as a percentage of the fully
     * populated cache (0 = unlimited). Applied after deployment, so
     * serving runs under LRU eviction from the first batch. */
    int cacheBudgetPct = 0;
    /** Precisions whose cells are exempt from eviction. Must be
     * members of the model's candidate set. */
    std::vector<int> pinnedBits;
};

/** One attack block inside an adversarial phase. */
struct AttackSpec
{
    std::string kind = "pgd"; ///< pgd | epgd | fgsm
    int steps = 5;
    double eps255 = 8.0;
    double alpha255 = 2.0;
};

/** One traffic phase. Which fields apply depends on type. */
struct PhaseSpec
{
    std::string type; ///< steady | bursty | adversarial | soak
    // steady / adversarial / soak
    int batches = 4;
    int requestsPerBatch = 4;
    int rowsPerRequest = 4;
    // bursty
    int bursts = 2;
    int burstRequests = 8;
    // adversarial
    AttackSpec attack;
    // soak
    int cycles = 2;
    int batchesPerCycle = 2;
    int checkpointEvery = 1;

    /** Points the phase iterates over (batches, bursts or cycles) —
     * the coordinate faults pin to. */
    int points() const;
};

/** One deterministic fault injection, pinned to (phase, at). */
struct FaultSpec
{
    std::string type; ///< corrupt_checkpoint | torn_save |
                      ///< cache_storm | starve_pool |
                      ///< malformed_request | memory_pressure
    int phase = 0;    ///< index into ScenarioSpec::phases
    int at = 0;       ///< point within the phase (batch/burst/cycle)
    // corrupt_checkpoint
    std::string mode = "bitflip"; ///< bitflip | truncate
    int flips = 3;
    bool persistent = false; ///< survive retries (rejection path)
    // cache_storm / memory_pressure
    int storms = 3;
    // memory_pressure: clamp the engine cache to this percentage of
    // its fully populated size, then drive `storms` full candidate
    // sweeps through the budgeted cache (an eviction storm).
    int budgetPct = 40;
    // malformed_request
    std::string kind = "oversized"; ///< oversized | wrong_shape |
                                    ///< wrong_rank
};

/** Baseline-compare rules (see harness/baseline.hh). */
struct CompareSpec
{
    /** Dotted metric paths that must match the baseline exactly. */
    std::vector<std::string> exact;
    /** path -> allowed absolute difference. */
    std::vector<std::pair<std::string, double>> absTol;
    /** path -> allowed relative difference (fraction). */
    std::vector<std::pair<std::string, double>> relTol;
    /** Metric key prefixes exempt from the key-set equality check
     * and from default-exact comparison (timing noise). */
    std::vector<std::string> ignore;
};

/** A fully validated scenario. */
struct ScenarioSpec
{
    std::string name;
    uint64_t seed = 2021;
    ModelSpec model;
    DataSpec data;
    ServingSpec serving;
    SessionSpec session;
    TuningSpec tuning;
    std::vector<PhaseSpec> phases;
    std::vector<FaultSpec> faults;
    CompareSpec compare;
    /** The parsed source document (echoed into run.json). */
    Json echo;
};

/** Validate and bind a parsed scenario document (throws SpecError
 * with the JSON path on the first violation). */
ScenarioSpec parseScenario(const Json &doc);

/** Convenience: read + parse + validate a scenario file (throws
 * SpecError / JsonError / io::CheckpointError for missing files). */
ScenarioSpec loadScenario(const std::string &path);

} // namespace harness
} // namespace twoinone

#endif // TWOINONE_HARNESS_SCENARIO_HH
