#include "trace.hh"

#include <algorithm>

#include "harness/json.hh"

namespace rpsbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].endUs = nowUs();
    open_.pop_back();
}

void
Tracer::arg(int id, const std::string &key, double value)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].args.emplace_back(key, value);
}

std::string
Tracer::chromeJson(const std::string &process) const
{
    using twoinone::harness::Json;
    Json events = Json::array();
    Json meta = Json::object();
    meta.set("name", Json("process_name"));
    meta.set("ph", Json("M"));
    meta.set("pid", Json(1));
    meta.set("tid", Json(1));
    Json margs = Json::object();
    margs.set("name", Json(process));
    meta.set("args", std::move(margs));
    events.push(std::move(meta));
    for (const Span &s : spans_) {
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("cat", Json("rpsbench"));
        e.set("ph", Json("X"));
        e.set("ts", Json(s.startUs));
        e.set("dur", Json(s.endUs - s.startUs));
        e.set("pid", Json(1));
        e.set("tid", Json(1));
        if (!s.args.empty()) {
            Json a = Json::object();
            for (const auto &kv : s.args)
                a.set(kv.first, Json(kv.second));
            e.set("args", std::move(a));
        }
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    return doc.dump();
}

std::vector<bool>
Tracer::insideOf(const std::string &root) const
{
    // Spans are stored in open order, so a parent always precedes its
    // children and one forward pass settles membership for all.
    std::vector<bool> inside(spans_.size(), false);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        inside[i] = s.name == root ||
                    (s.parent >= 0 && inside[static_cast<size_t>(s.parent)]);
    }
    return inside;
}

std::map<std::string, double>
Tracer::selfTimeUs(const std::string &root) const
{
    std::vector<bool> inside = insideOf(root);
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[i] += s.endUs - s.startUs;
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.endUs - s.startUs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (inside[i])
            out[spans_[i].name] += self[i];
    return out;
}

size_t
Tracer::countUnder(const std::string &root) const
{
    std::vector<bool> inside = insideOf(root);
    return static_cast<size_t>(
        std::count(inside.begin(), inside.end(), true));
}

double
Tracer::spanCostUs()
{
    const int n = 20000;
    Tracer t(true);
    t.spans_.reserve(n);
    double t0 = t.nowUs();
    for (int i = 0; i < n; ++i)
        t.end(t.begin("unit"));
    return (t.nowUs() - t0) / n;
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.endUs - s.startUs);
    return out;
}

} // namespace rpsbench
