/**
 * @file
 * rpsbench — the repository's benchmark program.
 *
 *   rpsbench --workload <mini_poisson|r50_stream|rps_train> --seed <n>
 *            --out <result.json> [--seconds <s>] [--trace <trace.json>]
 *            [--smoke]
 *
 * Without --trace a run measures the end-to-end metrics; with it, a
 * separate run records spans around the benchmark's calls into each
 * layer, writes them as Chrome trace-event JSON, and reports the
 * per-layer metrics. The seed drives the inputs (arrival times, the
 * request pool, the dataset); model weights and precision-draw seeds
 * are fixed.
 *
 * The workload runs in a re-executed child process, so ru_maxrss is
 * the workload's own peak and never the artifact build the parent
 * does first. Every metric is printed with its name and unit; any
 * wrong answer makes the exit status non-zero.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "tensor/gemm.hh"

extern char **environ;

namespace rpsbench {

void
Result::metric(const std::string &name, double value, const std::string &unit,
               uint64_t samples, const std::string &note)
{
    Json m = Json::object();
    m.set("value", Json(value));
    m.set("unit", Json(unit));
    m.set("samples", Json(samples));
    if (!note.empty())
        m.set("note", Json(note));
    metrics.set(name, std::move(m));
}

void
Result::fail(const std::string &why)
{
    correct = false;
    errors.push_back(why);
}

Json
Result::toJson() const
{
    Json j = Json::object();
    j.set("correct", Json(correct));
    j.set("attempted", Json(attempted));
    j.set("failed", Json(failed));
    Json errs = Json::array();
    for (const std::string &e : errors)
        errs.push(Json(e));
    j.set("errors", std::move(errs));
    j.set("metrics", metrics);
    j.set("details", details);
    return j;
}

std::string
pctLabel(double pct)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%g", pct);
    return buf;
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
rcharBytes()
{
    std::ifstream in("/proc/self/io");
    std::string key;
    double value = 0.0;
    while (in >> key >> value)
        if (key == "rchar:")
            return value;
    return 0.0;
}

} // namespace rpsbench

namespace {

using namespace rpsbench;

int
usage(const char *why)
{
    std::cerr << "rpsbench: " << why << "\n"
              << "usage: rpsbench --workload <mini_poisson|r50_stream|"
                 "rps_train> --seed <n> --out <json> [--seconds <s>] "
                 "[--trace <trace.json>] [--smoke]\n";
    return 2;
}

int
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** Child body: run the workload, write its result to @p out. */
int
runChild(const Options &o, const std::string &out)
{
    Tracer tracer(o.traced());
    Result r;
    try {
        if (o.workload == "rps_train")
            runTraining(o, r, tracer);
        else
            runServing(o, r, tracer);
    } catch (const std::exception &e) {
        r.fail(std::string("exception: ") + e.what());
    }
    if (!o.traced())
        r.metric("peak_rss_mb", peakRssMb(), "MB", 1,
                 "ru_maxrss of the workload process");
    if (o.traced()) {
        std::ofstream trace(o.tracePath);
        trace << tracer.chromeJson("rpsbench " + o.workload) << "\n";
        if (!trace)
            r.fail("cannot write " + o.tracePath);
    }
    std::ofstream f(out);
    f << r.toJson().dump(2) << "\n";
    return f ? 0 : 1;
}

/** Re-execute this binary with @p args and wait for it. */
int
spawnSelf(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    std::string self = "/proc/self/exe";
    argv.push_back(self.data());
    std::vector<std::string> copy = args;
    for (std::string &a : copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Json
metaJson(const Options &o)
{
    Json m = Json::object();
    const char *commit = std::getenv("RPSBENCH_COMMIT");
    m.set("commit", Json(commit != nullptr ? commit : "unknown"));
    m.set("nproc", Json(onlineCpus()));
    m.set("threads", Json(twoinone::ThreadPool::global().threads()));
    m.set("isa_tier", Json(twoinone::gemm::isaTierName(
                          twoinone::gemm::activeIsaTier())));
#ifdef __clang__
    m.set("compiler", Json(std::string(__VERSION__)));
#else
    m.set("compiler", Json("gcc " + std::string(__VERSION__)));
#endif
    m.set("seed", Json(o.seed));
    m.set("seconds", Json(o.seconds));
    m.set("smoke", Json(o.smoke));
    return m;
}

void
printReport(const Options &o, const Json &res)
{
    std::printf("rpsbench %s seed=%llu%s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.traced() ? " (traced)" : "");
    for (const auto &kv : res.find("metrics")->members()) {
        const Json *note = kv.second.find("note");
        std::printf("  %-30s %14.6g %-8s n=%-7.0f %s\n", kv.first.c_str(),
                    kv.second.find("value")->asNumber(),
                    kv.second.find("unit")->asString().c_str(),
                    kv.second.find("samples")->asNumber(),
                    note != nullptr ? note->asString().c_str() : "");
    }
    const Json *phases = res.find("details")->find("phases");
    for (size_t i = 0; phases != nullptr && i < phases->items().size(); ++i) {
        const Json &ph = phases->items()[i];
        const Json *ratio = ph.find("achieved_over_offered");
        const Json *lag = ph.find("lag_us_p99");
        std::printf("  phase %-9s %10.1f rows/s  achieved/offered %s  "
                    "lag p99 %s us  p50 %.3f ms  p%g %.3f ms  failed %.0f\n",
                    ph.find("name")->asString().c_str(),
                    ph.find("achieved_rows_s")->asNumber(),
                    ratio != nullptr
                        ? twoinone::formatFixed(ratio->asNumber(), 3).c_str()
                        : "-",
                    lag != nullptr ? twoinone::formatFixed(lag->asNumber(), 0).c_str()
                                   : "-",
                    ph.find("p50_ms")->asNumber(),
                    ph.find("tail_pct")->asNumber(),
                    ph.find("tail_ms")->asNumber(),
                    ph.find("failed")->asNumber());
    }
    std::printf("  correct=%s attempted=%.0f failed=%.0f\n",
                res.find("correct")->asBool() ? "true" : "false",
                res.find("attempted")->asNumber(),
                res.find("failed")->asNumber());
    for (const Json &e : res.find("errors")->items())
        std::printf("  ERROR: %s\n", e.asString().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string out;
    bool child = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (a == "--out")
            out = value();
        else if (a == "--trace")
            o.tracePath = value();
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--child")
            child = true;
        else if (a == "--workdir")
            o.workDir = value();
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (o.workload != "mini_poisson" && o.workload != "r50_stream" &&
        o.workload != "rps_train")
        return usage("unknown or missing --workload");
    if (!have_seed || out.empty() || !(o.seconds > 0.0))
        return usage("--seed, --out and a positive --seconds are required");

    // The pool runs at min(8, CPUs) threads in every run, whatever the
    // caller's environment says, so runs stay comparable.
    std::string threads = std::to_string(std::min(8, onlineCpus()));
    setenv("TWOINONE_THREADS", threads.c_str(), 1);
    if (child)
        return runChild(o, out);

    namespace fs = std::filesystem;
    o.workDir = out + ".work";
    fs::remove_all(o.workDir);
    fs::create_directories(o.workDir);
    try {
        if (o.workload != "rps_train")
            prepareServing(o);
    } catch (const std::exception &e) {
        std::cerr << "rpsbench: preparing " << o.workload
                  << " failed: " << e.what() << "\n";
        fs::remove_all(o.workDir);
        return 1;
    }
    std::string child_out = o.workDir + "/child.json";
    std::ostringstream secs;
    secs << o.seconds;
    std::vector<std::string> args = {"--child",    "--workload",
                                     o.workload,   "--seed",
                                     std::to_string(o.seed), "--seconds",
                                     secs.str(),   "--workdir",
                                     o.workDir,    "--out",
                                     child_out};
    if (o.traced()) {
        args.push_back("--trace");
        args.push_back(o.tracePath);
    }
    if (o.smoke)
        args.push_back("--smoke");
    int rc = spawnSelf(args);
    std::stringstream text;
    text << std::ifstream(child_out).rdbuf();
    fs::remove_all(o.workDir);
    Json res;
    try {
        res = Json::parse(text.str());
    } catch (const std::exception &e) {
        std::cerr << "rpsbench: workload process exited " << rc
                  << " without a result (" << e.what() << ")\n";
        return 1;
    }
    res.set("workload", Json(o.workload));
    res.set("meta", metaJson(o));
    printReport(o, res);
    std::ofstream f(out);
    f << res.dump(2) << "\n";
    if (!f) {
        std::cerr << "rpsbench: cannot write " << out << "\n";
        return 1;
    }
    return res.find("correct")->asBool() ? 0 : 1;
}
