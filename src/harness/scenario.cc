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

#include "io/serialize.hh"

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

int
getInt(const Json &obj, const char *key, const std::string &path,
       int def, int lo, int hi)
{
    const Json *v = obj.find(key);
    if (v == nullptr)
        return def;
    std::string p = path + "." + key;
    if (!v->isNumber())
        throw SpecError(p, "expected an integer");
    double d = v->asNumber();
    if (d != static_cast<double>(static_cast<long long>(d)))
        throw SpecError(p, "expected an integer, got " +
                               formatJsonNumber(d));
    int n = static_cast<int>(d);
    if (n < lo || n > hi)
        throw SpecError(p, std::to_string(n) + " is out of range [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
    return n;
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
    if (const Json *p = obj.find("precisions")) {
        std::string pp = path + ".precisions";
        if (!p->isArray() || p->items().empty())
            throw SpecError(pp, "expected a non-empty array of "
                                "bit-widths");
        int prev = 0;
        for (size_t i = 0; i < p->items().size(); ++i) {
            const Json &e = p->items()[i];
            std::string ep = pp + "[" + std::to_string(i) + "]";
            if (!e.isNumber())
                throw SpecError(ep, "expected an integer bit-width");
            int b = static_cast<int>(e.asNumber());
            if (b < 1 || b > 16)
                throw SpecError(ep, std::to_string(b) +
                                        " is out of range [1, 16]");
            if (b <= prev)
                throw SpecError(ep, "bit-widths must be strictly "
                                    "increasing");
            prev = b;
            m.precisions.push_back(b);
        }
    }
    return m;
}

DataSpec
parseData(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path, {"classes", "size", "train", "test"});
    DataSpec d;
    d.classes = getInt(obj, "classes", path, 10, 2, 1000);
    d.size = getInt(obj, "size", path, 8, 4, 64);
    d.train = getInt(obj, "train", path, 128, 0, 100000);
    d.test = getInt(obj, "test", path, 64, 16, 100000);
    return d;
}

ServingSpec
parseServing(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"max_batch", "micro_batch", "mode", "replicas",
                       "lazy_warmup", "async", "sessions",
                       "max_delay_us", "deadline_us", "policy",
                       "draw_bits", "draw_weights"});
    ServingSpec s;
    s.maxBatch = getInt(obj, "max_batch", path, 32, 1, 4096);
    s.microBatch = getInt(obj, "micro_batch", path, 8, 1, 4096);
    if (s.microBatch > s.maxBatch)
        throw SpecError(path + ".micro_batch",
                        std::to_string(s.microBatch) +
                            " exceeds max_batch " +
                            std::to_string(s.maxBatch));
    s.mode = getEnum(obj, "mode", path, "quantized",
                     {"quantized", "float"});
    s.replicas = getInt(obj, "replicas", path, 0, 0, 256);
    s.lazyWarmup = getBool(obj, "lazy_warmup", path, true);
    s.async = getBool(obj, "async", path, false);
    s.sessions = getInt(obj, "sessions", path, 1, 1, 64);
    s.maxDelayUs = getInt(obj, "max_delay_us", path, 0, 0, 10000000);
    s.deadlineUs = getInt(obj, "deadline_us", path, 0, 0, 10000000);
    s.policy = getEnum(obj, "policy", path, "round_robin",
                       {"round_robin", "edf"});
    if (const Json *db = obj.find("draw_bits")) {
        std::string dp = path + ".draw_bits";
        if (!db->isArray() || db->items().empty())
            throw SpecError(dp, "expected a non-empty array of "
                                "bit-widths");
        int prev = 0;
        for (size_t i = 0; i < db->items().size(); ++i) {
            const Json &e = db->items()[i];
            std::string ep = dp + "[" + std::to_string(i) + "]";
            if (!e.isNumber())
                throw SpecError(ep, "expected an integer bit-width");
            int b = static_cast<int>(e.asNumber());
            if (b < 1 || b > 16)
                throw SpecError(ep, std::to_string(b) +
                                        " is out of range [1, 16]");
            if (b <= prev)
                throw SpecError(ep, "bit-widths must be strictly "
                                    "increasing");
            prev = b;
            s.drawBits.push_back(b);
        }
    }
    if (const Json *dw = obj.find("draw_weights")) {
        std::string wp = path + ".draw_weights";
        if (s.drawBits.empty())
            throw SpecError(wp, "draw_weights requires draw_bits");
        if (!dw->isArray() ||
            dw->items().size() != s.drawBits.size())
            throw SpecError(wp, "expected one weight per draw_bits "
                                "entry (" +
                                    std::to_string(s.drawBits.size()) +
                                    ")");
        for (size_t i = 0; i < dw->items().size(); ++i) {
            const Json &e = dw->items()[i];
            std::string ep = wp + "[" + std::to_string(i) + "]";
            if (!e.isNumber() || e.asNumber() <= 0.0)
                throw SpecError(ep, "expected a positive weight");
            s.drawWeights.push_back(e.asNumber());
        }
    } else if (!s.drawBits.empty()) {
        s.drawWeights.assign(s.drawBits.size(), 1.0);
    }
    if (!s.async && s.policy != "round_robin")
        throw SpecError(path + ".policy",
                        "scheduling policy only applies to async "
                        "serving");
    if (!s.async && s.sessions > 1)
        throw SpecError(path + ".sessions",
                        "multi-session serving requires "
                        "\"async\": true");
    if (!s.async && (s.maxDelayUs > 0 || s.deadlineUs > 0))
        throw SpecError(path + ".async",
                        "max_delay_us / deadline_us only apply to "
                        "async serving");
    return s;
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

SessionSpec
parseSession(const Json &j, const std::string &path)
{
    const Json &obj = expectObject(j, path);
    rejectUnknownKeys(obj, path,
                      {"load_retries", "retry_backoff_ms", "stream",
                       "cache_budget_pct", "pinned_bits"});
    SessionSpec s;
    s.loadRetries = getInt(obj, "load_retries", path, 1, 0, 16);
    s.retryBackoffMs =
        getInt(obj, "retry_backoff_ms", path, 0, 0, 10000);
    s.stream = getBool(obj, "stream", path, false);
    s.cacheBudgetPct =
        getInt(obj, "cache_budget_pct", path, 0, 0, 100);
    if (const Json *pb = obj.find("pinned_bits")) {
        std::string pp = path + ".pinned_bits";
        if (!pb->isArray() || pb->items().empty())
            throw SpecError(pp, "expected a non-empty array of "
                                "bit-widths");
        int prev = 0;
        for (size_t i = 0; i < pb->items().size(); ++i) {
            const Json &e = pb->items()[i];
            std::string ep = pp + "[" + std::to_string(i) + "]";
            if (!e.isNumber())
                throw SpecError(ep, "expected an integer bit-width");
            int b = static_cast<int>(e.asNumber());
            if (b < 1 || b > 16)
                throw SpecError(ep, std::to_string(b) +
                                        " is out of range [1, 16]");
            if (b <= prev)
                throw SpecError(ep, "bit-widths must be strictly "
                                    "increasing");
            prev = b;
            s.pinnedBits.push_back(b);
        }
    }
    return s;
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
parsePhase(const Json &j, const std::string &path, int max_batch)
{
    const Json &obj = expectObject(j, path);
    PhaseSpec p;
    p.type = getEnum(obj, "type", path, nullptr,
                     {"steady", "bursty", "adversarial", "soak"});
    if (p.type == "steady") {
        rejectUnknownKeys(obj, path,
                          {"type", "batches", "requests_per_batch",
                           "rows_per_request"});
        p.batches = getInt(obj, "batches", path, 4, 1, 100000);
        p.requestsPerBatch =
            getInt(obj, "requests_per_batch", path, 4, 1, 1024);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
    } else if (p.type == "bursty") {
        rejectUnknownKeys(obj, path,
                          {"type", "bursts", "burst_requests",
                           "rows_per_request"});
        p.bursts = getInt(obj, "bursts", path, 2, 1, 100000);
        p.burstRequests =
            getInt(obj, "burst_requests", path, 8, 1, 4096);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
    } else if (p.type == "adversarial") {
        rejectUnknownKeys(obj, path,
                          {"type", "batches", "rows_per_request",
                           "attack"});
        p.batches = getInt(obj, "batches", path, 4, 1, 100000);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 8, 1, max_batch);
        if (const Json *a = obj.find("attack"))
            p.attack = parseAttack(*a, path + ".attack");
    } else { // soak
        rejectUnknownKeys(obj, path,
                          {"type", "cycles", "batches_per_cycle",
                           "requests_per_batch", "rows_per_request",
                           "checkpoint_every"});
        p.cycles = getInt(obj, "cycles", path, 2, 1, 100000);
        p.batchesPerCycle =
            getInt(obj, "batches_per_cycle", path, 2, 1, 100000);
        p.requestsPerBatch =
            getInt(obj, "requests_per_batch", path, 4, 1, 1024);
        p.rowsPerRequest =
            getInt(obj, "rows_per_request", path, 4, 1, max_batch);
        p.checkpointEvery =
            getInt(obj, "checkpoint_every", path, 1, 1, 100000);
    }
    return p;
}

FaultSpec
parseFault(const Json &j, const std::string &path,
           const std::vector<PhaseSpec> &phases)
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
    f.at = getInt(obj, "at", path, 0, 0, ph.points() - 1);

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

    // Checkpoint faults need a phase that saves/loads checkpoints.
    if ((f.type == "corrupt_checkpoint" || f.type == "torn_save") &&
        ph.type != "soak")
        throw SpecError(path + ".phase",
                        f.type + " requires a soak phase, phase " +
                            std::to_string(f.phase) + " is \"" +
                            ph.type + "\"");
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

int
PhaseSpec::points() const
{
    if (type == "bursty")
        return bursts;
    if (type == "soak")
        return cycles;
    return batches;
}

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

    if (const Json *m = obj.find("model"))
        s.model = parseModel(*m, "$.model");
    if (const Json *d = obj.find("data"))
        s.data = parseData(*d, "$.data");
    if (const Json *v = obj.find("serving"))
        s.serving = parseServing(*v, "$.serving");
    if (const Json *v = obj.find("session"))
        s.session = parseSession(*v, "$.session");
    if (const Json *v = obj.find("tuning"))
        s.tuning = parseTuning(*v, "$.tuning");

    // The draw distribution must be a subset of the model's candidate
    // set (the serving runtime asserts this; a spec violation must be
    // a SpecError). {4,5,6,8,12,16} is PrecisionSet::rps4to16, the
    // default when $.model.precisions is absent.
    if (!s.serving.drawBits.empty()) {
        std::vector<int> bound = s.model.precisions.empty()
                                     ? std::vector<int>{4, 5, 6, 8,
                                                        12, 16}
                                     : s.model.precisions;
        for (size_t i = 0; i < s.serving.drawBits.size(); ++i) {
            int b = s.serving.drawBits[i];
            if (std::find(bound.begin(), bound.end(), b) ==
                bound.end())
                throw SpecError(
                    "$.serving.draw_bits[" + std::to_string(i) + "]",
                    std::to_string(b) +
                        " is not in the model's candidate set");
        }
    }

    // Pinned cache precisions face the same bound: the Session maps
    // an out-of-set pin to a runtime ServeError, a spec asking for
    // one must be a SpecError.
    if (!s.session.pinnedBits.empty()) {
        std::vector<int> bound = s.model.precisions.empty()
                                     ? std::vector<int>{4, 5, 6, 8,
                                                        12, 16}
                                     : s.model.precisions;
        for (size_t i = 0; i < s.session.pinnedBits.size(); ++i) {
            int b = s.session.pinnedBits[i];
            if (std::find(bound.begin(), bound.end(), b) ==
                bound.end())
                throw SpecError(
                    "$.session.pinned_bits[" + std::to_string(i) +
                        "]",
                    std::to_string(b) +
                        " is not in the model's candidate set");
        }
    }

    const Json *phases = obj.find("phases");
    if (phases == nullptr)
        throw SpecError("$.phases", "missing required field");
    if (!phases->isArray() || phases->items().empty())
        throw SpecError("$.phases",
                        "expected a non-empty array of phases");
    for (size_t i = 0; i < phases->items().size(); ++i)
        s.phases.push_back(
            parsePhase(phases->items()[i],
                       "$.phases[" + std::to_string(i) + "]",
                       s.serving.maxBatch));

    if (const Json *faults = obj.find("faults")) {
        if (!faults->isArray())
            throw SpecError("$.faults", "expected an array of faults");
        for (size_t i = 0; i < faults->items().size(); ++i)
            s.faults.push_back(
                parseFault(faults->items()[i],
                           "$.faults[" + std::to_string(i) + "]",
                           s.phases));
    }

    if (const Json *c = obj.find("compare"))
        s.compare = parseCompare(*c, "$.compare");

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
