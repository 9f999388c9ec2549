#include "trace.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<uint64_t> t_open;

bool
inRuns(uint32_t run, const std::vector<uint32_t> &runs)
{
    return runs.empty() ||
        std::find(runs.begin(), runs.end(), run) != runs.end();
}

} // namespace

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

uint64_t
Tracer::open(const std::string &name, uint64_t parent)
{
    if (parent == 0 && !t_open.empty())
        parent = t_open.back();
    const double start = nowSeconds();
    uint64_t id;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        id = _spans.size() + 1;
        _spans.push_back(Span{ id, parent, _run, name, start, start });
    }
    t_open.push_back(id);
    return id;
}

void
Tracer::close(uint64_t id)
{
    const double end = nowSeconds();
    if (t_open.empty() || t_open.back() != id)
        throw std::logic_error("span closed out of order");
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[id - 1].end = end;
}

void
Tracer::count(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _counters[name] += v;
}

void
Tracer::sample(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _samples[name].push_back(v);
}

void
Tracer::setRun(uint32_t run)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _run = run;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

double
Tracer::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _counters.find(name);
    return it == _counters.end() ? 0.0 : it->second;
}

bool
Tracer::hasCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _counters.count(name) != 0;
}

std::vector<double>
Tracer::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _samples.find(name);
    return it == _samples.end() ? std::vector<double>{} : it->second;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    // Children per parent, as intervals clipped to the parent's.
    std::map<uint64_t, std::vector<std::pair<double, double>>> kids;
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    for (const Span &s : spans) {
        auto p = index.find(s.parent);
        if (s.parent == 0 || p == index.end())
            continue;
        const Span &par = spans[p->second];
        const double lo = std::max(s.start, par.start);
        const double hi = std::min(s.end, par.end);
        if (hi > lo)
            kids[s.parent].emplace_back(lo, hi);
    }

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        double covered = 0;
        auto it = kids.find(spans[i].id);
        if (it != kids.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = iv[0].first, hi = iv[0].second;
            for (size_t k = 1; k < iv.size(); ++k) {
                if (iv[k].first > hi) {
                    covered += hi - lo;
                    lo = iv[k].first;
                }
                hi = std::max(hi, iv[k].second);
            }
            covered += hi - lo;
        }
        self[i] = std::max(0.0, spans[i].duration() - covered);
    }
    return self;
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans,
                const std::vector<uint32_t> &runs)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (inRuns(spans[i].run, runs))
            out[spans[i].layer()] += self[i];
    }
    return out;
}

double
totalDuration(const std::vector<Span> &spans, const std::string &name,
              const std::vector<uint32_t> &runs)
{
    double total = 0;
    for (const Span &s : spans) {
        if (s.name == name && inRuns(s.run, runs))
            total += s.duration();
    }
    return total;
}

size_t
spanCount(const std::vector<Span> &spans, const std::string &name,
          const std::vector<uint32_t> &runs)
{
    size_t n = 0;
    for (const Span &s : spans) {
        if (s.name == name && inRuns(s.run, runs))
            ++n;
    }
    return n;
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const size_t n = samples.size();
    if (n == 0 || q <= 0 || q >= 1)
        return std::nullopt;
    // Nearest rank: the smallest sample with at least q*n samples at
    // or below it. The samples beyond it are the n - rank above.
    size_t rank = static_cast<size_t>(std::ceil(q * double(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < 10)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + long(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
OpsLedger::record(uint64_t n, uint64_t failed, const std::string &what)
{
    _attempted += n;
    _failed += std::min(failed, n);
    if (failed > 0)
        _msgs.push_back(what);
}

bool
OpsLedger::check(bool ok, const std::string &what)
{
    record(1, ok ? 0 : 1, what);
    return ok;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

void
writeResultLine(std::ostream &os, const OpsLedger &ops,
                const std::vector<Metric> &metrics)
{
    os << "{\"correct\": " << (ops.correct() ? "true" : "false")
       << ", \"attempted\": " << ops.attempted()
       << ", \"failed\": " << ops.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}\n";
}

} // namespace perfbench
