/**
 * @file
 * Tests for the scenario harness (ISSUE 6): the deterministic JSON
 * toolchain, path-addressed spec validation, the bounded quantile
 * sketch, seed-deterministic fault corruption, baseline diffing with
 * named missing/extra keys, the event journal's byte/digest
 * stability, and an end-to-end scenario run covering the three
 * headline faults (corrupted checkpoint load, cache-eviction storm,
 * thread-pool starvation) with same-seed rerun determinism. CMake
 * re-runs this binary under TWOINONE_THREADS=1/4 and
 * TWOINONE_BACKEND=naive — scenario digests must not change.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/baseline.hh"
#include "harness/event_journal.hh"
#include "harness/fault_injector.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"

namespace twoinone {
namespace harness {
namespace {

std::string
tmpDir(const std::string &name)
{
    // PID-qualified: the ctest matrix runs this binary several times,
    // possibly in parallel.
    return testing::TempDir() + "twoinone_harness_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------------
// JSON toolchain
// ---------------------------------------------------------------------------

TEST(HarnessJson, RoundTripPreservesOrderAndValues)
{
    std::string text =
        "{\"zeta\":1,\"alpha\":[true,null,\"x\\n\"],\"n\":-2.5}";
    Json j = Json::parse(text);
    EXPECT_EQ(j.dump(), text); // insertion order + number formatting
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(HarnessJson, IntegralNumbersPrintWithoutDecimalPoint)
{
    EXPECT_EQ(formatJsonNumber(42.0), "42");
    EXPECT_EQ(formatJsonNumber(-3.0), "-3");
    EXPECT_EQ(Json::parse(formatJsonNumber(0.1)).asNumber(), 0.1);
}

TEST(HarnessJson, ParseErrorsCarryLineAndColumn)
{
    try {
        Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
        FAIL() << "duplicate key accepted";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate object key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
    EXPECT_THROW(Json::parse("[1, 2"), JsonError);
    EXPECT_THROW(Json::parse("{\"a\": tru}"), JsonError);
    EXPECT_THROW(Json::parse("1 2"), JsonError);
}

// ---------------------------------------------------------------------------
// Bounded quantile sketch (Server latency stats)
// ---------------------------------------------------------------------------

TEST(QuantileSketch, QuantilesWithinRelativeErrorAtFixedMemory)
{
    QuantileSketch sketch(0.05);
    Rng rng(7);
    std::vector<double> exact;
    for (int i = 0; i < 20000; ++i) {
        double v = std::exp(rng.uniform(std::log(10.0),
                                        std::log(1e6)));
        sketch.add(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.5, 0.9, 0.99}) {
        double want =
            exact[static_cast<size_t>(q * (exact.size() - 1))];
        double got = sketch.quantile(q);
        EXPECT_NEAR(got, want, want * 0.12)
            << "q=" << q; // 2*relError + bucket midpoint slack
    }
    // Memory is a function of the value range, not the sample count.
    EXPECT_LT(sketch.buckets(), 2000u);
    sketch.clear();
    EXPECT_EQ(sketch.count(), 0u);
    EXPECT_EQ(sketch.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Scenario validation: one actionable line with the JSON path
// ---------------------------------------------------------------------------

Json
minimalSpec()
{
    return Json::parse(R"({
      "name": "t",
      "phases": [{"type": "steady", "batches": 1}]
    })");
}

void
expectSpecError(Json doc, const std::string &wantPath,
                const std::string &wantSubstring)
{
    try {
        parseScenario(doc);
        FAIL() << "expected SpecError at " << wantPath;
    } catch (const SpecError &e) {
        EXPECT_EQ(e.path(), wantPath);
        EXPECT_NE(std::string(e.what()).find(wantSubstring),
                  std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(ScenarioSpec, UnknownKeyNamesThePathAndAllowedKeys)
{
    Json doc = minimalSpec();
    Json model = Json::object();
    model.set("archh", Json("convnet_tiny"));
    doc.set("model", model);
    expectSpecError(doc, "$.model.archh", "unknown key");
    expectSpecError(doc, "$.model.archh", "allowed: arch");
}

TEST(ScenarioSpec, OutOfRangeNamesTheBounds)
{
    Json doc = minimalSpec();
    Json data = Json::object();
    data.set("classes", Json(1));
    doc.set("data", data);
    expectSpecError(doc, "$.data.classes", "out of range [2, 1000]");
}

TEST(ScenarioSpec, MissingRequiredFieldsAreNamed)
{
    Json noName = Json::object();
    noName.set("phases", minimalSpec().members()[1].second);
    expectSpecError(noName, "$.name", "missing required field");

    Json noPhases = Json::object();
    noPhases.set("name", Json("t"));
    expectSpecError(noPhases, "$.phases", "missing required field");
}

TEST(ScenarioSpec, FaultCoordinatesValidatedAgainstPhases)
{
    Json doc = minimalSpec();
    Json faults = Json::array();
    Json f = Json::object();
    f.set("type", Json("cache_storm"));
    f.set("phase", Json(0));
    f.set("at", Json(5)); // phase 0 has a single point
    faults.push(f);
    doc.set("faults", faults);
    expectSpecError(doc, "$.faults[0].at", "out of range [0, 0]");

    // Checkpoint faults need a phase that saves/loads artifacts.
    Json doc2 = minimalSpec();
    Json f2 = Json::object();
    f2.set("type", Json("torn_save"));
    Json faults2 = Json::array();
    faults2.push(f2);
    doc2.set("faults", faults2);
    expectSpecError(doc2, "$.faults[0].phase", "requires a soak phase");
}

TEST(ScenarioSpec, BadEnumListsTheAlternatives)
{
    Json doc = minimalSpec();
    Json serving = Json::object();
    serving.set("mode", Json("int8"));
    doc.set("serving", serving);
    expectSpecError(doc, "$.serving.mode", "quantized | float");
}

// ---------------------------------------------------------------------------
// Fault corruption determinism
// ---------------------------------------------------------------------------

TEST(FaultInjector, CorruptionIsSeedDeterministic)
{
    FaultSpec f;
    f.type = "corrupt_checkpoint";
    f.mode = "bitflip";
    f.flips = 5;
    std::vector<uint8_t> a(256, 0xAB), b(256, 0xAB), c(256, 0xAB);
    corruptBytes(a, f, 99);
    corruptBytes(b, f, 99);
    corruptBytes(c, f, 100);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, std::vector<uint8_t>(256, 0xAB));

    f.mode = "truncate";
    std::vector<uint8_t> t(256, 0xAB);
    corruptBytes(t, f, 99);
    EXPECT_EQ(t.size(), 128u);
}

// ---------------------------------------------------------------------------
// Baseline diffing
// ---------------------------------------------------------------------------

TEST(Baseline, MissingAndExtraKeysAreNamed)
{
    Json base = Json::parse(
        "{\"counts\":{\"rows\":10,\"gone\":1},\"timing\":{\"qps\":9}}");
    Json cur = Json::parse(
        "{\"counts\":{\"rows\":10,\"added\":2},\"timing\":{\"qps\":1}}");
    CompareSpec rules;
    rules.ignore.push_back("timing");
    CompareResult res = compareBaseline(base, cur, rules);
    ASSERT_FALSE(res.ok);
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].path, "counts.gone");
    EXPECT_NE(res.failures[0].message.find("missing from current run"),
              std::string::npos);
    EXPECT_EQ(res.failures[1].path, "counts.added");
    EXPECT_NE(res.failures[1].message.find("extra key not in baseline"),
              std::string::npos);
}

TEST(Baseline, TolerancesAndExactRules)
{
    Json base = Json::parse(
        "{\"accuracy\":{\"nat\":80.0},\"counts\":{\"rows\":10}}");
    Json cur = Json::parse(
        "{\"accuracy\":{\"nat\":82.0},\"counts\":{\"rows\":10}}");
    CompareSpec rules;
    rules.absTol.emplace_back("accuracy", 5.0);
    EXPECT_TRUE(compareBaseline(base, cur, rules).ok);

    rules.absTol.clear();
    rules.absTol.emplace_back("accuracy", 1.0);
    CompareResult res = compareBaseline(base, cur, rules);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.failures[0].path, "accuracy.nat");
    EXPECT_NE(res.failures[0].message.find("allowed abs_tol 1"),
              std::string::npos);

    // exact wins over a covering tolerance rule.
    rules.absTol.clear();
    rules.absTol.emplace_back("accuracy", 100.0);
    rules.exact.push_back("accuracy.nat");
    EXPECT_FALSE(compareBaseline(base, cur, rules).ok);
}

TEST(Baseline, PathMatchingIsPrefixSafe)
{
    EXPECT_TRUE(pathMatches("counts", "counts.rows"));
    EXPECT_TRUE(pathMatches("phases", "phases[2]"));
    EXPECT_FALSE(pathMatches("counts", "counts_extra"));
    EXPECT_FALSE(pathMatches("counts.rows", "counts"));
}

// ---------------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------------

TEST(EventJournal, SequencedLinesAndStableDigest)
{
    std::string dir = tmpDir("journal");
    ensureDir(dir);
    uint64_t d1 = 0, d2 = 0;
    std::string text1;
    for (int round = 0; round < 2; ++round) {
        EventJournal j(dir + "/events.jsonl");
        Json detail = Json::object();
        detail.set("value", Json(7));
        j.emit("first", detail);
        j.emit("second");
        EXPECT_EQ(j.count(), 2u);
        j.close();
        if (round == 0) {
            d1 = j.digest();
            text1 = readAll(dir + "/events.jsonl");
        } else {
            d2 = j.digest();
        }
    }
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(text1,
              "{\"seq\":0,\"type\":\"first\",\"value\":7}\n"
              "{\"seq\":1,\"type\":\"second\"}\n");
    EXPECT_EQ(readAll(dir + "/events.jsonl"), text1);
}

// ---------------------------------------------------------------------------
// End to end: headline faults + same-seed determinism
// ---------------------------------------------------------------------------

/** Parse @p text with serving.async set to @p async. */
ScenarioSpec
specWithAsync(const std::string &text, bool async)
{
    Json doc = Json::parse(text);
    Json serving = *doc.find("serving");
    serving.set("async", Json(async));
    doc.set("serving", serving);
    return parseScenario(doc);
}

/** A fast scenario exercising the three headline faults: corrupted
 * checkpoint load (transient and persistent), a cache-eviction
 * storm, and thread-pool starvation, plus a malformed request. */
ScenarioSpec
e2eSpec(bool async = false)
{
    const char *text = R"({
      "name": "e2e",
      "seed": 31,
      "model": {"arch": "convnet_tiny", "base_width": 4,
                "calibrate_batches": 1},
      "data": {"classes": 3, "size": 8, "train": 32, "test": 32},
      "serving": {"max_batch": 8, "micro_batch": 4},
      "session": {"load_retries": 1},
      "phases": [
        {"type": "steady", "batches": 3, "requests_per_batch": 2,
         "rows_per_request": 3},
        {"type": "soak", "cycles": 2, "batches_per_cycle": 1,
         "requests_per_batch": 2, "rows_per_request": 3,
         "checkpoint_every": 1}
      ],
      "faults": [
        {"type": "cache_storm", "phase": 0, "at": 0, "storms": 2},
        {"type": "starve_pool", "phase": 0, "at": 1},
        {"type": "malformed_request", "phase": 0, "at": 2,
         "kind": "wrong_rank"},
        {"type": "corrupt_checkpoint", "phase": 1, "at": 0,
         "mode": "bitflip"},
        {"type": "corrupt_checkpoint", "phase": 1, "at": 1,
         "mode": "truncate", "persistent": true}
      ]
    })";
    return specWithAsync(text, async);
}

uint64_t
countMetric(const Json &metrics, const std::string &key)
{
    const Json *counts = metrics.find("counts");
    const Json *v = counts->find(key);
    return static_cast<uint64_t>(v->asNumber());
}

TEST(ScenarioRunner, HeadlineFaultsRecoverAndRerunsAreByteIdentical)
{
    std::string out1 = tmpDir("e2e_a");
    std::string out2 = tmpDir("e2e_b");
    RunResult r1 = ScenarioRunner(e2eSpec(), out1).run();
    RunResult r2 = ScenarioRunner(e2eSpec(), out2).run();

    // Every injected fault was survived.
    EXPECT_TRUE(r1.faultsRecovered);
    EXPECT_EQ(countMetric(r1.metrics, "faults_injected"), 5u);
    EXPECT_EQ(countMetric(r1.metrics, "faults_recovered"), 5u);
    EXPECT_EQ(countMetric(r1.metrics, "degraded"), 1u);
    EXPECT_GE(countMetric(r1.metrics, "load_retries"), 2u);
    EXPECT_EQ(countMetric(r1.metrics, "rejected_requests"), 1u);
    EXPECT_EQ(countMetric(r1.metrics, "cache_storms"), 1u);

    // Same-seed reruns: byte-identical journals (different --out
    // dirs), identical digests and counts.
    EXPECT_EQ(readAll(out1 + "/e2e/events.jsonl"),
              readAll(out2 + "/e2e/events.jsonl"));
    EXPECT_EQ(r1.metrics.find("digests")->dump(),
              r2.metrics.find("digests")->dump());
    EXPECT_EQ(r1.metrics.find("counts")->dump(),
              r2.metrics.find("counts")->dump());

    // The evidence bundle is complete.
    EXPECT_FALSE(readAll(out1 + "/e2e/run.json").empty());
    EXPECT_FALSE(readAll(out1 + "/e2e/metrics.json").empty());
    EXPECT_FALSE(readAll(out1 + "/e2e/model.ckpt").empty());
}

/** Both modes serve through the Server, so the async flag changes no
 * count or draw, and starve_pool reaches the dispatcher thread
 * (ScopedSerial is process-wide). */
TEST(ScenarioRunner, AsyncRunRecoversEveryFaultAndMatchesSyncRun)
{
    RunResult sync = ScenarioRunner(e2eSpec(false), tmpDir("e2e_sync"))
                         .run();
    RunResult async =
        ScenarioRunner(e2eSpec(true), tmpDir("e2e_async")).run();

    EXPECT_TRUE(async.faultsRecovered);
    EXPECT_EQ(countMetric(async.metrics, "faults_injected"), 5u);
    EXPECT_EQ(countMetric(async.metrics, "faults_recovered"), 5u);
    EXPECT_EQ(async.metrics.find("counts")->dump(),
              sync.metrics.find("counts")->dump());
    EXPECT_EQ(
        async.metrics.find("digests")->find("precision_trace")->dump(),
        sync.metrics.find("digests")->find("precision_trace")->dump());
}

/** One traffic point of more requests than the Server's default
 * admission bound (1024) serves whole in both modes: the runner sizes
 * the tenant queue from the phases. */
TEST(ScenarioRunner, BurstBeyondDefaultQueueCapacityServesWhole)
{
    const std::string text = R"({
      "name": "bigburst", "seed": 5,
      "model": {"arch": "convnet_tiny", "base_width": 4,
                "calibrate_batches": 1},
      "data": {"classes": 4, "size": 8, "train": 32, "test": 64},
      "serving": {"max_batch": 4, "micro_batch": 4,
                  "mode": "quantized"},
      "phases": [{"type": "bursty", "bursts": 1,
                  "burst_requests": 2048, "rows_per_request": 1}]
    })";
    for (bool async : {false, true}) {
        RunResult r = ScenarioRunner(specWithAsync(text, async),
                                     tmpDir(async ? "burst_async"
                                                  : "burst_sync"))
                          .run();
        EXPECT_EQ(countMetric(r.metrics, "shed_requests"), 0u);
        EXPECT_EQ(countMetric(r.metrics, "requests"), 2048u);
        EXPECT_EQ(countMetric(r.metrics, "batches"), 512u);
        EXPECT_EQ(r.metrics.find("digests")
                      ->find("precision_trace")
                      ->asString(),
                  "4a786e6ff57f08e1")
            << "async=" << async;
    }
}

TEST(ScenarioRunner, BaselineCompareCatchesCountDrift)
{
    std::string out = tmpDir("e2e_drift");
    ScenarioSpec spec = e2eSpec();
    RunResult r = ScenarioRunner(spec, out).run();

    CompareSpec rules;
    rules.exact.push_back("counts");
    rules.ignore.push_back("timing");
    rules.ignore.push_back("digests.events");
    rules.absTol.emplace_back("accuracy", 100.0);
    EXPECT_TRUE(compareBaseline(r.metrics, r.metrics, rules).ok);

    // Tamper with one count: the diff names the drifted key.
    Json tampered = Json::parse(r.metrics.dump());
    Json counts = *tampered.find("counts");
    counts.set("faults_recovered",
               Json(countMetric(r.metrics, "faults_recovered") - 1));
    tampered.set("counts", counts);
    CompareResult res = compareBaseline(tampered, r.metrics, rules);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.failures[0].path, "counts.faults_recovered");
}

} // namespace
} // namespace harness
} // namespace twoinone
