/**
 * @file
 * Scenario parsing and validation.
 *
 * The checking style is deliberate: every field access goes through a
 * helper that knows the JSON path it is inspecting, every object is
 * swept for unknown keys after its known fields are consumed, and the
 * first violation throws SpecError with that path. A scenario author
 * always gets "which node, what's wrong, what's allowed" in one line.
 */

#include "harness/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "io/serialize.hh"
#include "quant/precision.hh"

namespace twoinone {
namespace harness {

namespace {

/** The object at @p path (throws when absent or mistyped). */
const Json &
expectObject(const Json &j, const std::string &path)
{
    if (!j.isObject())
        throw SpecError(path, "expected an object");
    return j;
}

/** Reject members of @p obj not in @p allowed. */
void
rejectUnknownKeys(const Json &obj, const std::string &path,
                  std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.members()) {
        bool known = false;
        for (const char *a : allowed) {
            if (kv.first == a) {
                known = true;
                break;
            }
        }
        if (!known) {
            std::string list;
            for (const char *a : allowed)
                list += list.empty() ? a : std::string(", ") + a;
            throw SpecError(path + "." + kv.first,
                            "unknown key (allowed: " + list + ")");
        }
    }
}

/** @p v as an integer in [lo, hi]. The range is checked on the double,
 * before the cast that would be undefined outside int's range. */
int
toInt(const Json &v, const std::string &path, int lo, int hi)
{
    if (!v.isNumber())
        throw SpecError(path, "expected an integer");
    double d = v.asNumber();
    if (d != std::trunc(d))
        throw SpecError(path, "expected an integer, got " +
                                  formatJsonNumber(d));
    if (d < lo || d > hi)
        throw SpecError(path, formatJsonNumber(d) +
                                  " is out of range [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]");
    return static_cast<int>(d);
}

int
getInt(const Json &obj, const char *key, const std::string &path,
       int def, int lo, int hi)
{
    const Json *v = obj.find(key);
    return v == nullptr ? def : toInt(*v, path + "." + key, lo, hi);
}

/** A strictly increasing list of bit-widths (empty when absent). */
std::vector<int>
getBits(const Json &obj, const char *key, const std::string &path)
{
    std::vector<int> bits;
    const Json *v = obj.find(key);
    if (v == nullptr)
        return bits;
    std::string p = path + "." + key;
    if (!v->isArray() || v->items().empty())
        throw SpecError(p, "expected a non-empty array of bit-widths");
    for (size_t i = 0; i < v->items().size(); ++i) {
        std::string ep = p + "[" + std::to_string(i) + "]";
        int b = toInt(v->items()[i], ep, 1, 16);
        if (!bits.empty() && b <= bits.back())
            throw SpecError(ep, "bit-widths must be strictly increasing");
        bits.push_back(b);
    }
    return bits;
}

/** Every entry of @p bits must be a candidate of @p model: the serving
 * stack asserts it, so a spec asking otherwise is a SpecError. */
void
requireCandidates(const std::vector<int> &bits, const ModelSpec &model,
                  const std::string &path)
{
    PrecisionSet set = model.precisions.empty()
                           ? PrecisionSet::rps4to16()
                           : PrecisionSet(model.precisions);
    for (size_t i = 0; i < bits.size(); ++i) {
        if (!set.contains(bits[i]))
            throw SpecError(path + "[" + std::to_string(i) + "]",
                            std::to_string(bits[i]) +
                                " is not in the model's candidate set");
    }
}

double
getNumber(const Json &obj, const char *key, const std::string &path,
          double def, double lo, double hi)
{
    const Json *v = obj.find(key);
    if (v == nullptr)
        return def;
    std::string p = path + "." + key;
    if (!v->isNumber())
        throw SpecError(p, "expected a number");
    double d = v->asNumber();
    if (d < lo || d > hi)
        throw SpecError(p, formatJsonNumber(d) +
                               " is out of range [" +
                               formatJsonNumber(lo) + ", " +
                               formatJsonNumber(hi) + "]");
    return d;
}

bool
getBool(const Json &obj, const char *key, const std::string &path,
        bool def)
{
    const Json *v = obj.find(key);
    if (v == nullptr)
        return def;
    if (!v->isBool())
        throw SpecError(path + "." + key, "expected true or false");
    return v->asBool();
}

std::string
getEnum(const Json &obj, const char *key, const std::string &path,
        const char *def, std::initializer_list<const char *> allowed)
{
    const Json *v = obj.find(key);
    std::string p = path + "." + key;
    std::string s;
    if (v == nullptr) {
        if (def == nullptr)
            throw SpecError(p, "missing required field");
        s = def;
    } else {
        if (!v->isString())
            throw SpecError(p, "expected a string");
        s = v->asString();
    }
    for (const char *a : allowed) {
        if (s == a)
            return s;
    }
    std::string list;
    for (const char *a : allowed)
        list += list.empty() ? a : std::string(" | ") + a;
    throw SpecError(p, "\"" + s + "\" is not one of: " + list);
}

ModelSpec
parseModel(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"arch", "base_width", "precisions",
                       "train_epochs", "train_method",
                       "calibrate_batches"});
    ModelSpec m;
    m.arch = getEnum(obj, "arch", path, "convnet_tiny",
                     {"convnet_tiny", "preact_mini", "wide_mini"});
    m.baseWidth = getInt(obj, "base_width", path, 4, 1, 64);
    m.trainEpochs = getInt(obj, "train_epochs", path, 0, 0, 64);
    m.trainMethod = getEnum(obj, "train_method", path, "natural",
                            {"natural", "fgsm", "pgd7", "free"});
    m.calibrateBatches =
        getInt(obj, "calibrate_batches", path, 0, 0, 64);
    m.precisions = getBits(obj, "precisions", path);
    return m;
}

SyntheticConfig
parseData(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path, {"classes", "size", "train", "test"});
    SyntheticConfig d;
    d.numClasses = getInt(obj, "classes", path, 10, 2, 1000);
    d.height = d.width = getInt(obj, "size", path, 8, 4, 64);
    d.trainSize = getInt(obj, "train", path, 128, 0, 100000);
    d.testSize = getInt(obj, "test", path, 64, 16, 100000);
    return d;
}

void
parseServing(const Json &j, const std::string &path, ScenarioSpec &s)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"max_batch", "micro_batch", "mode", "replicas",
                       "lazy_warmup", "async", "sessions",
                       "max_delay_us", "deadline_us", "policy",
                       "draw_bits", "draw_weights"});
    serve::ServeConfig &c = s.serving;
    c.maxBatch = getInt(obj, "max_batch", path, 32, 1, 4096);
    c.microBatch = getInt(obj, "micro_batch", path, 8, 1, 4096);
    if (c.microBatch > c.maxBatch)
        throw SpecError(path + ".micro_batch",
                        std::to_string(c.microBatch) +
                            " exceeds max_batch " +
                            std::to_string(c.maxBatch));
    c.mode = getEnum(obj, "mode", path, "quantized",
                     {"quantized", "float"}) == "float"
                 ? serve::PlanMode::Float
                 : serve::PlanMode::Quantized;
    c.replicas = getInt(obj, "replicas", path, 0, 0, 256);
    c.lazyPlanWarmup = getBool(obj, "lazy_warmup", path, true);
    s.async = getBool(obj, "async", path, false);
    s.sessions = getInt(obj, "sessions", path, 1, 1, 64);
    serve::ServerConfig &sc = s.server;
    sc.maxBatchDelayUs =
        getInt(obj, "max_delay_us", path, 0, 0, 10000000);
    sc.defaultDeadlineUs = static_cast<uint64_t>(
        getInt(obj, "deadline_us", path, 0, 0, 10000000));
    sc.policy = getEnum(obj, "policy", path, "round_robin",
                        {"round_robin", "edf"}) == "edf"
                    ? serve::SchedulingPolicy::EarliestDeadlineFirst
                    : serve::SchedulingPolicy::RoundRobin;
    c.drawBits = getBits(obj, "draw_bits", path);
    if (const Json *dw = obj.find("draw_weights")) {
        std::string wp = path + ".draw_weights";
        if (c.drawBits.empty())
            throw SpecError(wp, "draw_weights requires draw_bits");
        if (!dw->isArray() ||
            dw->items().size() != c.drawBits.size())
            throw SpecError(wp, "expected one weight per draw_bits "
                                "entry (" +
                                    std::to_string(c.drawBits.size()) +
                                    ")");
        for (size_t i = 0; i < dw->items().size(); ++i) {
            const Json &e = dw->items()[i];
            std::string ep = wp + "[" + std::to_string(i) + "]";
            if (!e.isNumber() || e.asNumber() <= 0.0)
                throw SpecError(ep, "expected a positive weight");
            c.drawWeights.push_back(static_cast<float>(e.asNumber()));
        }
    } else if (!c.drawBits.empty()) {
        c.drawWeights.assign(c.drawBits.size(), 1.0f);
    }
    if (!s.async && sc.policy != serve::SchedulingPolicy::RoundRobin)
        throw SpecError(path + ".policy",
                        "scheduling policy only applies to async "
                        "serving");
    if (!s.async && s.sessions > 1)
        throw SpecError(path + ".sessions",
                        "multi-session serving requires "
                        "\"async\": true");
    if (!s.async && (sc.maxBatchDelayUs > 0 || sc.defaultDeadlineUs > 0))
        throw SpecError(path + ".async",
                        "max_delay_us / deadline_us only apply to "
                        "async serving");
}

TuningSpec
parseTuning(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"cycles", "population", "probe_requests",
                       "apply"});
    TuningSpec t;
    t.enabled = true;
    t.cycles = getInt(obj, "cycles", path, 3, 1, 64);
    // The evolutionary loop needs at least 4 genomes per cycle.
    t.population = getInt(obj, "population", path, 8, 4, 64);
    t.probeRequests =
        getInt(obj, "probe_requests", path, 8, 0, 1024);
    t.apply = getBool(obj, "apply", path, false);
    return t;
}

void
parseSession(const Json &j, const std::string &path, ScenarioSpec &s)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"load_retries", "retry_backoff_ms", "stream",
                       "cache_budget_pct", "pinned_bits"});
    SessionConfig &c = s.session;
    c.loadRetries = getInt(obj, "load_retries", path, 1, 0, 16);
    c.loadRetryBackoffMs =
        getInt(obj, "retry_backoff_ms", path, 0, 0, 10000);
    c.streamArtifact = getBool(obj, "stream", path, false);
    s.cacheBudgetPct =
        getInt(obj, "cache_budget_pct", path, 0, 0, 100);
    c.pinnedBits = getBits(obj, "pinned_bits", path);
}

AttackSpec
parseAttack(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path, {"kind", "steps", "eps255", "alpha255"});
    AttackSpec a;
    a.kind = getEnum(obj, "kind", path, "pgd", {"pgd", "epgd", "fgsm"});
    a.steps = getInt(obj, "steps", path, 5, 1, 100);
    a.eps255 = getNumber(obj, "eps255", path, 8.0, 0.25, 64.0);
    a.alpha255 = getNumber(obj, "alpha255", path, 2.0, 0.25, 64.0);
    return a;
}

PhaseSpec
parsePhase(const Json &j, const std::string &path, int max_batch,
           int test_rows)
{
    const Json &obj = expectObject(j, path);
    PhaseSpec p;
    p.type = getEnum(obj, "type", path, nullptr,
                     {"steady", "bursty", "adversarial", "soak"});
    if (p.type == "steady") {
        rejectUnknownKeys(obj, path,
                          {"type", "batches", "requests_per_batch",
                           "rows_per_request"});
        p.points = getInt(obj, "batches", path, 4, 1, 100000);
        p.requestsPerPoint =
            getInt(obj, "requests_per_batch", path, 4, 1, 1024);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
    } else if (p.type == "bursty") {
        rejectUnknownKeys(obj, path,
                          {"type", "bursts", "burst_requests",
                           "rows_per_request"});
        p.points = getInt(obj, "bursts", path, 2, 1, 100000);
        p.requestsPerPoint =
            getInt(obj, "burst_requests", path, 8, 1, 4096);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
    } else if (p.type == "adversarial") {
        rejectUnknownKeys(obj, path,
                          {"type", "batches", "rows_per_request",
                           "attack"});
        p.points = getInt(obj, "batches", path, 4, 1, 100000);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 8, 1, max_batch);
        if (const Json *a = obj.find("attack"))
            p.attack = parseAttack(*a, path + ".attack");
    } else { // soak
        rejectUnknownKeys(obj, path,
                          {"type", "cycles", "batches_per_cycle",
                           "requests_per_batch", "rows_per_request",
                           "checkpoint_every"});
        p.points = getInt(obj, "cycles", path, 2, 1, 100000);
        p.batchesPerCycle =
            getInt(obj, "batches_per_cycle", path, 2, 1, 100000);
        p.requestsPerPoint =
            getInt(obj, "requests_per_batch", path, 4, 1, 1024);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
        p.checkpointEvery =
            getInt(obj, "checkpoint_every", path, 1, 1, 100000);
    }
    // Every request is a contiguous run of test rows; an adversarial
    // point attacks all of its requests' rows as one batch.
    bool adversarial = p.type == "adversarial";
    int rows = adversarial ? p.requestsPerPoint * p.rowsPerRequest
                           : p.rowsPerRequest;
    if (rows > test_rows)
        throw SpecError(path + ".rows_per_request",
                        std::to_string(rows) + " rows per " +
                            (adversarial ? "attacked point"
                                         : "request") +
                            " exceed the " +
                            std::to_string(test_rows) +
                            "-row test set ($.data.test)");
    return p;
}

FaultSpec
parseFault(const Json &j, const std::string &path,
           const std::vector<PhaseSpec> &phases,
           const std::vector<FaultSpec> &earlier)
{
    const Json &obj = expectObject(j, path);
    FaultSpec f;
    f.type = getEnum(obj, "type", path, nullptr,
                     {"corrupt_checkpoint", "torn_save", "cache_storm",
                      "starve_pool", "malformed_request",
                      "memory_pressure"});
    int nphases = static_cast<int>(phases.size());
    f.phase = getInt(obj, "phase", path, 0, 0, nphases - 1);
    const PhaseSpec &ph = phases[static_cast<size_t>(f.phase)];
    f.at = getInt(obj, "at", path, 0, 0, ph.points - 1);

    if (f.type == "corrupt_checkpoint") {
        rejectUnknownKeys(obj, path,
                          {"type", "phase", "at", "mode", "flips",
                           "persistent"});
        f.mode = getEnum(obj, "mode", path, "bitflip",
                         {"bitflip", "truncate"});
        f.flips = getInt(obj, "flips", path, 3, 1, 64);
        f.persistent = getBool(obj, "persistent", path, false);
    } else if (f.type == "torn_save") {
        rejectUnknownKeys(obj, path, {"type", "phase", "at"});
    } else if (f.type == "cache_storm") {
        rejectUnknownKeys(obj, path, {"type", "phase", "at", "storms"});
        f.storms = getInt(obj, "storms", path, 3, 1, 100);
    } else if (f.type == "memory_pressure") {
        rejectUnknownKeys(obj, path,
                          {"type", "phase", "at", "budget_pct",
                           "storms"});
        f.budgetPct = getInt(obj, "budget_pct", path, 40, 1, 100);
        f.storms = getInt(obj, "storms", path, 3, 1, 100);
    } else if (f.type == "starve_pool") {
        rejectUnknownKeys(obj, path, {"type", "phase", "at"});
    } else { // malformed_request
        rejectUnknownKeys(obj, path, {"type", "phase", "at", "kind"});
        f.kind = getEnum(obj, "kind", path, "oversized",
                         {"oversized", "wrong_shape", "wrong_rank"});
    }

    // Checkpoint faults fire at their cycle's save and reload.
    if (f.type == "corrupt_checkpoint" || f.type == "torn_save") {
        if (ph.type != "soak")
            throw SpecError(path + ".phase",
                            f.type + " requires a soak phase, phase " +
                                std::to_string(f.phase) + " is \"" +
                                ph.type + "\"");
        if ((f.at + 1) % ph.checkpointEvery != 0)
            throw SpecError(path + ".at",
                            "cycle " + std::to_string(f.at) +
                                " does not save: phase " +
                                std::to_string(f.phase) +
                                " saves when (cycle + 1) % " +
                                std::to_string(ph.checkpointEvery) +
                                " == 0");
    }
    for (size_t i = 0; i < earlier.size(); ++i) {
        const FaultSpec &e = earlier[i];
        if (e.type == f.type && e.phase == f.phase && e.at == f.at)
            throw SpecError(path + ".at",
                            "$.faults[" + std::to_string(i) +
                                "] is already a " + f.type +
                                " at this point");
    }
    return f;
}

CompareSpec
parseCompare(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"exact", "abs_tol", "rel_tol", "ignore"});
    CompareSpec c;
    auto keyList = [&](const char *key, std::vector<std::string> &out) {
        const Json *v = obj.find(key);
        if (v == nullptr)
            return;
        std::string p = path + "." + key;
        if (!v->isArray())
            throw SpecError(p, "expected an array of metric paths");
        for (size_t i = 0; i < v->items().size(); ++i) {
            const Json &e = v->items()[i];
            if (!e.isString())
                throw SpecError(p + "[" + std::to_string(i) + "]",
                                "expected a metric path string");
            out.push_back(e.asString());
        }
    };
    keyList("exact", c.exact);
    keyList("ignore", c.ignore);
    auto tolMap = [&](const char *key,
                      std::vector<std::pair<std::string, double>> &out) {
        const Json *v = obj.find(key);
        if (v == nullptr)
            return;
        std::string p = path + "." + key;
        if (!v->isObject())
            throw SpecError(p, "expected an object of "
                               "{\"metric.path\": tolerance}");
        for (const auto &kv : v->members()) {
            if (!kv.second.isNumber() || kv.second.asNumber() < 0)
                throw SpecError(p + "." + kv.first,
                                "expected a non-negative tolerance");
            out.emplace_back(kv.first, kv.second.asNumber());
        }
    };
    tolMap("abs_tol", c.absTol);
    tolMap("rel_tol", c.relTol);
    return c;
}

} // namespace

ScenarioSpec
parseScenario(const Json &doc)
{
    const Json &obj = expectObject(doc, "$");
    rejectUnknownKeys(obj, "$",
                      {"name", "seed", "model", "data", "serving",
                       "session", "tuning", "phases", "faults",
                       "compare"});

    ScenarioSpec s;
    s.echo = doc;

    const Json *name = obj.find("name");
    if (name == nullptr)
        throw SpecError("$.name", "missing required field");
    if (!name->isString() || name->asString().empty())
        throw SpecError("$.name", "expected a non-empty string");
    for (char c : name->asString()) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_')
            throw SpecError("$.name",
                            "only [A-Za-z0-9_-] allowed (the name "
                            "becomes the evidence-bundle directory)");
    }
    s.name = name->asString();
    s.seed = static_cast<uint64_t>(
        getInt(obj, "seed", "$", 2021, 0, 1 << 30));

    // An absent block parses as an empty one: the library configs it
    // binds into default differently from the spec.
    const Json none = Json::object();
    auto block = [&](const char *key) -> const Json & {
        const Json *v = obj.find(key);
        return v != nullptr ? *v : none;
    };
    s.model = parseModel(block("model"), "$.model");
    s.data = parseData(block("data"), "$.data");
    parseServing(block("serving"), "$.serving", s);
    parseSession(block("session"), "$.session", s);
    if (const Json *v = obj.find("tuning"))
        s.tuning = parseTuning(*v, "$.tuning");
    requireCandidates(s.serving.drawBits, s.model, "$.serving.draw_bits");
    requireCandidates(s.session.pinnedBits, s.model,
                      "$.session.pinned_bits");

    const Json *phases = obj.find("phases");
    if (phases == nullptr)
        throw SpecError("$.phases", "missing required field");
    if (!phases->isArray() || phases->items().empty())
        throw SpecError("$.phases",
                        "expected a non-empty array of phases");
    for (size_t i = 0; i < phases->items().size(); ++i) {
        s.phases.push_back(
            parsePhase(phases->items()[i],
                       "$.phases[" + std::to_string(i) + "]",
                       s.serving.maxBatch, s.data.testSize));
        s.server.queueCapacity = std::max(
            s.server.queueCapacity, s.phases.back().requestsPerPoint);
    }

    if (const Json *faults = obj.find("faults")) {
        if (!faults->isArray())
            throw SpecError("$.faults", "expected an array of faults");
        for (size_t i = 0; i < faults->items().size(); ++i)
            s.faults.push_back(
                parseFault(faults->items()[i],
                           "$.faults[" + std::to_string(i) + "]",
                           s.phases, s.faults));
    }

    s.compare = parseCompare(block("compare"), "$.compare");

    return s;
}

ScenarioSpec
loadScenario(const std::string &path)
{
    std::vector<uint8_t> bytes = io::readFile(path);
    std::string text(reinterpret_cast<const char *>(bytes.data()),
                     bytes.size());
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const JsonError &e) {
        throw SpecError("$", path + ": " + e.what());
    }
    return parseScenario(doc);
}

} // namespace harness
} // namespace twoinone
