/**
 * @file
 * Shared plumbing of the rpsbench workloads: run options, the result
 * record every workload fills, and process-level probes.
 */

#ifndef RPSBENCH_COMMON_HH
#define RPSBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "nn/network.hh"
#include "quant/rps_engine.hh"
#include "trace.hh"

namespace rpsbench {

using twoinone::harness::Json;

/** Fixed model-weight seed: the benchmark seed drives inputs only. */
constexpr uint64_t kWeightSeed = 2021;
/** Fixed precision-draw seed (ServeConfig::seed / TrainConfig::seed). */
constexpr uint64_t kDrawSeed = 77;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured seconds of one run; phase lengths scale with it. */
    double seconds = 20.0;
    /** Tiny models and inputs: the ctest smoke run. */
    bool smoke = false;
    /** Where the traced run writes Chrome trace JSON ("" = untraced:
     * end-to-end metrics; set = per-layer metrics). */
    std::string tracePath;
    /** Scratch directory for artifacts handed to the child. */
    std::string workDir;

    bool traced() const { return !tracePath.empty(); }
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    Json metrics = Json::object();
    Json details = Json::object();

    /** Record metric @p name; @p samples is the count it rests on. */
    void metric(const std::string &name, double value,
                const std::string &unit, uint64_t samples = 1,
                const std::string &note = "");
    /** Mark the run incorrect with a reason. */
    void fail(const std::string &why);

    Json toJson() const;
};

/**
 * The per-layer numbers of a traced run, filled by each workload from
 * its own calls and emitted by emitLayers() under one fixed set of
 * names, so every workload reports every per-layer metric. A layer a
 * workload never calls shows as a zero count, rate or share, never as
 * a zero time.
 */
struct LayerReport
{
    /** Replayed unit (serving batch / training step) durations, us. */
    std::vector<double> unitUs;
    double unitRows = 0.0;
    /** Precision installs: durations (us) and cell-fill counters. */
    std::vector<double> installUs;
    uint64_t fills = 0, hydrations = 0, evictions = 0, coldInstalls = 0;
    /** ExecutionPlan::profileSteps over the candidates, us. */
    double forwardUs = 0.0;
    std::map<std::string, double> stepKindUs;
    double stepSumUs = 0.0;
    /** Conv work per plan forward, computed from Conv2d shapes. */
    double convOps = 0.0, convBytes = 0.0;
    double masterBytes = 0.0, cacheBytes = 0.0, arenaBytes = 0.0;
    double ioBytesPerUnit = 0.0;
    std::vector<double> setupLoadS, setupCompileS, setupFirstS;
    double generatorBusyFrac = 0.0;
    /** Goodput bisection result, rows/s (mini_poisson only). */
    double goodputRowsS = 0.0;
    /** Self time per span name inside the replayed units, us, and the
     * spans recorded per unit (for the tracing overhead). */
    std::map<std::string, double> selfUs;
    double spansPerUnit = 0.0;
};

/** Write every per-layer metric of @p l into @p r. */
void emitLayers(const LayerReport &l, Result &r);

/** Fill the plan fields of @p l: profile the plan of @p mode compiled
 * for @p x at every candidate precision of @p engine (equal weight).
 * Returns the profiled plan's arena bytes. */
double profilePlan(twoinone::Network &net, twoinone::RpsEngine &engine,
                 twoinone::serve::PlanMode mode, const twoinone::Tensor &x,
                 int reps, LayerReport &l);

/** Fill convOps/convBytes of @p l for one forward of @p batch images
 * of side @p hw; @p elem_bytes is the operand width in bytes. */
void convCost(twoinone::Network &net, int batch, int hw,
              double elem_bytes, LayerReport &l);

/** Bytes of the network's master parameters. */
double masterBytes(twoinone::Network &net);

/** "p99", "p99.9", ...: the label of a percentile in notes. */
std::string pctLabel(double pct);

/** Steady-clock seconds since an arbitrary epoch. */
double nowS();
/** Peak resident set of this process so far, MiB. */
double peakRssMb();
/** Bytes this process has read through read(2) and friends
 * (/proc/self/io rchar); 0 when unavailable. */
double rcharBytes();

/** @name Workloads
 * prepareServing runs in the parent (the artifact and references the
 * child loads); the run* functions are the measured child runs. */
/** @{ */
void prepareServing(const Options &o);
void runServing(const Options &o, Result &r, Tracer &t);
void runTraining(const Options &o, Result &r, Tracer &t);
/** @} */

} // namespace rpsbench

#endif // RPSBENCH_COMMON_HH
