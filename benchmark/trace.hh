/**
 * @file
 * In-memory span recorder for rpsbench's traced run. Spans are opened
 * and closed around the benchmark's own calls into the library (the
 * library itself is not instrumented), kept in memory, and written
 * once at the end as Chrome trace-event JSON, which Perfetto and
 * chrome://tracing open. Single-threaded: only the benchmark's driving
 * thread records.
 */

#ifndef RPSBENCH_TRACE_HH
#define RPSBENCH_TRACE_HH

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rpsbench {

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; returns its id
     * (-1 when disabled). */
    int begin(const std::string &name);
    /** Close span @p id (must be the innermost open span). */
    void end(int id);
    /** Attach a numeric argument shown in the trace viewer. */
    void arg(int id, const std::string &key, double value);

    /** Chrome trace-event JSON of every recorded span. */
    std::string chromeJson(const std::string &process) const;

    /** Self time in microseconds per span name, over the spans inside
     * (and including) spans named @p root: each span's duration minus
     * the part its child spans cover. */
    std::map<std::string, double> selfTimeUs(const std::string &root) const;

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Spans inside (and including) spans named @p root. */
    size_t countUnder(const std::string &root) const;

    /** Measured cost of recording one span (begin + end), us. */
    static double spanCostUs();

  private:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        std::vector<std::pair<std::string, double>> args;
    };

    double nowUs() const;
    /** Per span: whether it is, or sits inside, a span named @p root. */
    std::vector<bool> insideOf(const std::string &root) const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name) : t_(t), id_(t.begin(name))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

} // namespace rpsbench

#endif // RPSBENCH_TRACE_HH
