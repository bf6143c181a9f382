#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <random>

namespace rpsbench {

namespace {

/** 1-based nearest rank of @p pct among @p n samples. The slack keeps
 * products like 0.999 * 10000 from rounding up past an exact rank. */
double
nearestRank(double pct, size_t n)
{
    return std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = nearestRank(pct, v.size());
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

double
tailPercent(size_t n)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Samples strictly beyond the nearest-rank position.
        if (static_cast<double>(n) - nearestRank(pct, n) >= 10.0)
            return pct;
    }
    return 0.0;
}

Tail
windowedTail(const std::vector<double> &times,
             const std::vector<double> &values, double t0, double t1,
             int windows)
{
    Tail out;
    std::vector<std::vector<double>> per(
        static_cast<size_t>(std::max(1, windows)));
    double width = (t1 - t0) / static_cast<double>(per.size());
    for (size_t i = 0; i < values.size() && width > 0.0; ++i) {
        double w = std::floor((times[i] - t0) / width);
        if (w < 0.0 || w >= static_cast<double>(per.size()))
            continue;
        per[static_cast<size_t>(w)].push_back(values[i]);
    }
    bool windowed = per.size() > 1;
    for (const auto &w : per)
        windowed = windowed && tailPercent(w.size()) >= 99.0;
    if (windowed) {
        for (const auto &w : per)
            out.perWindow.push_back(percentile(w, 99.0));
        out.pct = 99.0;
        out.value = median(out.perWindow);
        return out;
    }
    out.pct = tailPercent(values.size());
    out.value = out.pct > 0.0 ? percentile(values, out.pct) : 0.0;
    return out;
}

std::vector<double>
poissonSchedule(uint64_t seed, double rate, double duration)
{
    // mt19937_64 output is specified bit for bit by the standard, and
    // the inverse CDF below avoids the implementation-defined
    // std::*_distribution, so a seed means one schedule everywhere.
    std::mt19937_64 gen(seed);
    std::vector<double> out;
    double t = 0.0;
    for (;;) {
        double u = static_cast<double>((gen() >> 11) + 1) * 0x1.0p-53;
        t += -std::log(u) / rate;
        if (t >= duration)
            return out;
        out.push_back(t);
    }
}

LogBisection::LogBisection(double lo, double hi, int probes)
    : pass_(lo), fail_(hi), probes_(probes)
{
}

double
LogBisection::next() const
{
    return std::sqrt(pass_ * fail_);
}

void
LogBisection::record(bool pass)
{
    (pass ? pass_ : fail_) = next();
    ++taken_;
}

} // namespace rpsbench
