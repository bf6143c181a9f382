/**
 * @file
 * End-to-end serving bench on the ImageNet-class model_library shape:
 * streaming warm start + byte-budgeted engine cache vs the eager
 * full-hydration path (the ISSUE 10 tentpole benchmark).
 *
 * The parent process builds the servable ResNet-50 stand-in
 * (workloads::servableResNet50 — stages 3-4-6-3 at a scaled width),
 * calibrates it, populates the full engine cache across the rps4to16
 * candidates, and saves the artifact with cells + packs. It then
 * re-executes itself twice, because ru_maxrss is a process-lifetime
 * high-water mark — the two load paths must peak in separate
 * processes to be comparable:
 *
 *   --phase full    eager Session::fromCheckpoint: whole artifact
 *                   read + every cell hydrated up front.
 *   --phase stream  streamArtifact=true with cacheBudgetBytes at
 *                   ~40% of the measured full cache size: directory +
 *                   state eager, cells faulted in per (layer,
 *                   precision) under LRU eviction.
 *
 * Each child runs the identical serve workload — a full precision
 * sweep of quantized forwards plus a batch served by a one-tenant
 * serve::Server — and reports
 * peak RSS, a logits digest, and the engine counters. The parent
 * gates:
 *   - digest equality (eviction/rehydration must stay bit-identical),
 *   - stream cacheBytes() <= budget (the invariant, child-asserted
 *     too),
 *   - stream peak RSS < 0.75x the full-hydration peak.
 *
 * Results merge into BENCH_rps.json as the "imagenet_serve" section,
 * tracked by ci/check_bench_regression.py via
 * imagenet_serve.rss_saving and imagenet_serve.hydrations.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/json.hh"
#include "io/checkpoint.hh"
#include "io/serialize.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "workloads/model_library.hh"

namespace {

using namespace twoinone;

/** Peak RSS of this process so far, in KiB (Linux ru_maxrss unit). */
long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Running FNV-1a fold over a tensor's float bytes. */
uint64_t
foldTensor(uint64_t h, const Tensor &t)
{
    // Re-seed the fold with the previous digest so section order
    // matters, then hash the raw float bytes.
    const uint8_t *bytes =
        reinterpret_cast<const uint8_t *>(t.data());
    uint64_t chunk = io::fnv1a(bytes, t.size() * sizeof(float));
    h ^= chunk;
    h *= 1099511628211ULL;
    return h;
}

/** The identical serve workload both children run: one quantized
 * forward per rps4to16 candidate plus a batch served by a Server,
 * digesting every logit tensor. */
uint64_t
runWorkload(Session &sess)
{
    Rng rng(515);
    Tensor x = Tensor::uniform({4, 3, 32, 32}, rng, 0.0f, 1.0f);
    uint64_t digest = 1469598103934665603ULL;
    for (int bits : sess.candidates().bits()) {
        sess.switchPrecision(bits);
        digest = foldTensor(digest, sess.forwardQuantized(x));
    }
    // Second sweep in reverse: under a 40% budget the early cells
    // have been evicted by now, so this is the rehydration path.
    const std::vector<int> &bits = sess.candidates().bits();
    for (size_t i = bits.size(); i-- > 0;) {
        sess.switchPrecision(bits[i]);
        digest = foldTensor(digest, sess.forwardQuantized(x));
    }
    // Started paused, then flushed: the four requests close as one
    // batch on the real clock, so both children draw one precision.
    serve::ServerConfig sc;
    sc.startPaused = true;
    serve::Server server(sc);
    int tenant = server.addTenant(sess);
    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(server.submit(
            tenant, Tensor::uniform({2, 3, 32, 32}, rng, 0.0f, 1.0f)));
    server.flush();
    for (auto &f : futs)
        digest = foldTensor(digest, f.get().y);
    return digest;
}

/** Hex form of a digest (JSON-safe). */
std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Child body: load the artifact on one path, run the workload,
 * write {peak_rss_kb, digest, cache_bytes, ...} to @p out_path. */
int
runPhase(const std::string &phase, const std::string &artifact,
         const std::string &out_path, size_t budget)
{
    SessionConfig cfg;
    cfg.inputShape = {3, 32, 32};
    cfg.serving.seed = 99;
    if (phase == "stream") {
        cfg.streamArtifact = true;
        cfg.cacheBudgetBytes = budget;
    }
    Session sess = Session::fromCheckpoint(artifact, cfg);
    long load_kb = peakRssKb();
    uint64_t digest = runWorkload(sess);
    long peak_kb = peakRssKb();
    size_t cache_bytes = sess.engine().cacheBytes();
    if (phase == "stream" && budget > 0 && cache_bytes > budget) {
        std::cerr << "FAIL: cacheBytes() " << cache_bytes
                  << " exceeds the " << budget << " byte budget\n";
        return 1;
    }
    harness::Json doc = harness::Json::object();
    doc.set("peak_rss_kb", harness::Json(static_cast<int>(peak_kb)));
    doc.set("load_rss_kb", harness::Json(static_cast<int>(load_kb)));
    doc.set("digest", harness::Json(hex(digest)));
    doc.set("cache_bytes",
            harness::Json(static_cast<int>(cache_bytes)));
    doc.set("hydrations", harness::Json(static_cast<int>(
                              sess.engine().cellHydrations())));
    doc.set("evictions", harness::Json(static_cast<int>(
                             sess.engine().cacheEvictions())));
    doc.set("rebuilds", harness::Json(static_cast<int>(
                            sess.engine().columnRebuilds())));
    std::ofstream out(out_path);
    out << doc.dump(2) << "\n";
    return out ? 0 : 1;
}

double
num(const harness::Json &j, const char *key)
{
    const harness::Json *v = j.find(key);
    return v != nullptr ? v->asNumber() : 0.0;
}

std::string
str(const harness::Json &j, const char *key)
{
    const harness::Json *v = j.find(key);
    return v != nullptr ? v->asString() : std::string();
}

harness::Json
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "FAIL: child result " << path << " missing\n";
        std::exit(1);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return harness::Json::parse(ss.str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string phase, artifact, out_path;
    size_t budget = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--phase" && i + 1 < argc)
            phase = argv[++i];
        else if (a == "--artifact" && i + 1 < argc)
            artifact = argv[++i];
        else if (a == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (a == "--budget" && i + 1 < argc)
            budget = static_cast<size_t>(
                std::strtoull(argv[++i], nullptr, 10));
    }
    if (!phase.empty())
        return runPhase(phase, artifact, out_path, budget);

    bool fast = bench::fastMode();
    bench::banner(
        "ImageNet-class serving: streaming warm start + cache budget");
    std::cout << (fast ? "(fast mode)\n" : "");

    // --- Build, calibrate, fill the cache, save --------------------
    Rng rng(808);
    int width = fast ? 12 : 16;
    Network net = workloads::servableResNet50(rng, width);
    size_t params = 0;
    for (const Parameter *p : net.parameters())
        params += p->value.size();
    {
        Rng cal_rng(63);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 32, 32}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net);
    for (int bits : net.precisionSet().bits())
        engine.setPrecision(bits);
    size_t full_cache = engine.cacheBytes();
    size_t budget_bytes =
        static_cast<size_t>(static_cast<double>(full_cache) * 0.4);

    const std::string ckpt = "imagenet_serve_artifact.ckpt";
    checkpoint::SaveOptions opts;
    opts.includeEngineCache = true;
    opts.includeEnginePacks = true;
    checkpoint::save(ckpt, net, &engine, opts);
    size_t artifact_bytes = 0;
    {
        std::ifstream in(ckpt, std::ios::binary | std::ios::ate);
        artifact_bytes = static_cast<size_t>(in.tellg());
    }
    std::printf("%-24s %10zu params, artifact %.1f MB, full cache "
                "%.1f MB, budget %.1f MB\n",
                "servable_resnet50", params,
                artifact_bytes / 1048576.0, full_cache / 1048576.0,
                budget_bytes / 1048576.0);

    // --- Re-exec: one process per load path ------------------------
    auto child = [&](const std::string &ph, size_t b,
                     const std::string &out) {
        std::string cmd = std::string(argv[0]) + " --phase " + ph +
                          " --artifact " + ckpt + " --out " + out +
                          " --budget " + std::to_string(b);
        int rc = std::system(cmd.c_str());
        if (rc != 0) {
            std::cerr << "FAIL: child '" << cmd << "' exited "
                      << rc << "\n";
            std::exit(1);
        }
    };
    child("full", 0, "imagenet_serve_full.json");
    child("stream", budget_bytes, "imagenet_serve_stream.json");

    harness::Json full = loadJson("imagenet_serve_full.json");
    harness::Json stream = loadJson("imagenet_serve_stream.json");
    double full_peak_kb = num(full, "peak_rss_kb");
    double stream_peak_kb = num(stream, "peak_rss_kb");
    double full_load_kb = num(full, "load_rss_kb");
    double stream_load_kb = num(stream, "load_rss_kb");
    double rss_saving =
        stream_peak_kb > 0.0 ? full_peak_kb / stream_peak_kb : 0.0;
    double load_saving =
        stream_load_kb > 0.0 ? full_load_kb / stream_load_kb : 0.0;
    bool identical = str(full, "digest") == str(stream, "digest");

    std::printf("\n%-24s %12s %12s %12s %10s %10s\n", "load path",
                "load_rss_mb", "peak_rss_mb", "cache_mb", "hydrations",
                "evictions");
    std::printf("%-24s %12.1f %12.1f %12.1f %10.0f %10.0f\n",
                "full (eager)", full_load_kb / 1024.0,
                full_peak_kb / 1024.0,
                num(full, "cache_bytes") / 1048576.0,
                num(full, "hydrations"),
                num(full, "evictions"));
    std::printf("%-24s %12.1f %12.1f %12.1f %10.0f %10.0f\n",
                "stream (40% budget)", stream_load_kb / 1024.0,
                stream_peak_kb / 1024.0,
                num(stream, "cache_bytes") / 1048576.0,
                num(stream, "hydrations"),
                num(stream, "evictions"));
    std::printf("%-24s %11.2fx   peak %.2fx   logits %s\n",
                "warm-start rss saving", load_saving, rss_saving,
                identical ? "bit-identical" : "DIVERGED");

    // --- Merge the imagenet_serve section into BENCH_rps.json ------
    harness::Json doc = harness::Json::object();
    {
        std::ifstream in("BENCH_rps.json");
        if (in) {
            std::stringstream ss;
            ss << in.rdbuf();
            try {
                doc = harness::Json::parse(ss.str());
            } catch (const harness::JsonError &e) {
                std::cerr << "warning: BENCH_rps.json unparseable ("
                          << e.what() << "), starting fresh\n";
                doc = harness::Json::object();
            }
        }
    }
    harness::Json section = harness::Json::object();
    section.set("model", harness::Json(std::string(
                             "servable_resnet50")));
    section.set("params", harness::Json(static_cast<int>(params)));
    section.set("artifact_bytes",
                harness::Json(static_cast<int>(artifact_bytes)));
    section.set("full_cache_bytes",
                harness::Json(static_cast<int>(full_cache)));
    section.set("budget_bytes",
                harness::Json(static_cast<int>(budget_bytes)));
    section.set("full_peak_rss_mb",
                harness::Json(std::round(full_peak_kb / 1024.0 * 10.0) /
                              10.0));
    section.set("stream_peak_rss_mb",
                harness::Json(
                    std::round(stream_peak_kb / 1024.0 * 10.0) /
                    10.0));
    section.set("full_load_rss_mb",
                harness::Json(std::round(full_load_kb / 1024.0 * 10.0) /
                              10.0));
    section.set("stream_load_rss_mb",
                harness::Json(
                    std::round(stream_load_kb / 1024.0 * 10.0) /
                    10.0));
    section.set("rss_saving",
                harness::Json(std::round(rss_saving * 100.0) / 100.0));
    section.set("load_rss_saving",
                harness::Json(std::round(load_saving * 100.0) / 100.0));
    section.set("hydrations",
                harness::Json(num(stream, "hydrations")));
    section.set("evictions",
                harness::Json(num(stream, "evictions")));
    section.set("bit_identical", harness::Json(identical));
    doc.set("imagenet_serve", std::move(section));
    {
        std::ofstream out("BENCH_rps.json");
        out << doc.dump(2) << "\n";
    }
    std::cout << "\nmerged imagenet_serve into BENCH_rps.json\n";

    // --- Gates -----------------------------------------------------
    if (!identical) {
        std::cerr << "FAIL: streaming/budgeted serving diverged from "
                     "the eager path (digest mismatch)\n";
        return 1;
    }
    if (num(stream, "cache_bytes") >
        static_cast<double>(budget_bytes)) {
        std::cerr << "FAIL: stream child finished above its cache "
                     "budget\n";
        return 1;
    }
    if (num(stream, "hydrations") <= 0.0) {
        std::cerr << "FAIL: streaming warm start hydrated no cells — "
                     "the lazy path did not engage\n";
        return 1;
    }
    // The warm start itself is where streaming wins: eager load
    // materializes the whole artifact + cache, streaming touches the
    // directory plus the state blobs only.
    if (stream_load_kb >= 0.6 * full_load_kb) {
        std::cerr << "FAIL: streaming warm start loaded at "
                  << stream_load_kb / 1024.0 << " MB RSS, not well "
                  << "below the eager " << full_load_kb / 1024.0
                  << " MB (floor: 40% saving at load time)\n";
        return 1;
    }
    // End-to-end peak: both children run the identical sweep (whose
    // scratch dominates and cancels), so streaming must still clear a
    // third of the cache slack the budget holds back.
    double slack_kb =
        static_cast<double>(full_cache - budget_bytes) / 1024.0;
    if (stream_peak_kb >= full_peak_kb - slack_kb / 3.0) {
        std::cerr << "FAIL: streaming+budget peaked at "
                  << stream_peak_kb / 1024.0 << " MB, not measurably "
                  << "below the full-hydration "
                  << full_peak_kb / 1024.0 << " MB (floor: "
                  << slack_kb / 3.0 / 1024.0 << " MB of the held-back "
                  << "cache slack)\n";
        return 1;
    }
    return 0;
}
