/**
 * @file
 * Load-generation and summary statistics for rpsbench: percentiles
 * under the at-least-ten-samples-beyond rule, windowed tails, the
 * seeded Poisson arrival schedule, and the log-scale goodput
 * bisection. Pure functions of their inputs, so the tests in
 * test_rpsbench.cc pin them without running a model.
 */

#ifndef RPSBENCH_STATS_HH
#define RPSBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpsbench {

/** Nearest-rank @p pct percentile (0 < pct <= 100) of @p v; 0 when
 * empty. Takes a copy: callers keep their sample order. */
double percentile(std::vector<double> v, double pct);

/** Median of @p v (nearest-rank p50); 0 when empty. */
double median(const std::vector<double> &v);

/**
 * The highest percentile in {99.9, 99, 95, 90, 75, 50} that leaves at
 * least ten of @p n samples beyond it; 0 when even the median does
 * not (n < 20).
 */
double tailPercent(size_t n);

/** A tail latency together with the evidence behind it. */
struct Tail
{
    double pct = 0.0;   ///< which percentile
    double value = 0.0; ///< its value (input units)
    std::vector<double> perWindow; ///< the window p99s (when windowed)
};

/**
 * Tail of @p values, whose sample i fell at time @p times[i]. The
 * span [t0, t1) is cut into @p windows equal windows; when every
 * window holds enough samples for a p99 (at least 1000), the result
 * is the median of the per-window p99s, which a single stall cannot
 * move. Otherwise it falls back to the highest percentile the whole
 * sample supports (tailPercent).
 */
Tail windowedTail(const std::vector<double> &times,
                  const std::vector<double> &values, double t0,
                  double t1, int windows);

/**
 * Open-loop arrival offsets in seconds over [0, duration): exponential
 * inter-arrival gaps at @p rate per second, drawn from a generator
 * seeded with @p seed. The same arguments give the same schedule.
 */
std::vector<double> poissonSchedule(uint64_t seed, double rate,
                                    double duration);

/**
 * Log-scale bisection for the highest passing rate in [lo, hi]. lo is
 * presumed to pass and hi to fail; each probe sits at the geometric
 * midpoint of the current bracket. The result is the bracket's
 * passing end, so it depends only on the sequence of outcomes.
 */
class LogBisection
{
  public:
    LogBisection(double lo, double hi, int probes);

    /** Whether another probe is due. */
    bool done() const { return taken_ >= probes_; }
    /** The rate to probe next. */
    double next() const;
    /** Record the outcome of probing next(). */
    void record(bool pass);
    /** Highest rate known to pass (lo when none did). */
    double result() const { return pass_; }

  private:
    double pass_;
    double fail_;
    int probes_;
    int taken_ = 0;
};

} // namespace rpsbench

#endif // RPSBENCH_STATS_HH
