#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "logging.hh"

namespace hipstr
{

Histogram::Histogram(std::string name, uint64_t bin_width, size_t num_bins)
    : _name(std::move(name)), _binWidth(bin_width), _bins(num_bins, 0)
{
    hipstr_assert(bin_width > 0);
    hipstr_assert(num_bins > 0);
}

void
Histogram::sample(uint64_t v, uint64_t count)
{
    size_t bin = std::min(static_cast<size_t>(v / _binWidth),
                          _bins.size() - 1);
    _bins[bin] += count;
    _samples += count;
    _sum += v * count;
}

void
Histogram::reset()
{
    std::fill(_bins.begin(), _bins.end(), 0);
    _samples = 0;
    _sum = 0;
}

void
Histogram::merge(const Histogram &other)
{
    hipstr_assert(other._binWidth == _binWidth &&
                  other._bins.size() == _bins.size());
    for (size_t i = 0; i < _bins.size(); ++i)
        _bins[i] += other._bins[i];
    _samples += other._samples;
    _sum += other._sum;
}

double
Histogram::mean() const
{
    // Empty histogram: define the mean as 0.0 rather than 0/0. Stats
    // dumps and JSON exports run mid-experiment, before any sample
    // may have arrived.
    if (_samples == 0)
        return 0.0;
    return static_cast<double>(_sum) / static_cast<double>(_samples);
}

uint64_t
Histogram::percentile(double p) const
{
    // Same guard as mean(): percentile queries on an empty histogram
    // (including one merged from only-empty shards) answer 0 rather
    // than dividing by — or walking past — zero samples.
    if (_samples == 0)
        return 0;
    p = std::min(1.0, std::max(0.0, p));
    // Rank of the p-quantile sample, 1-based, clamped into range so
    // p=0 answers the first sample's bin and p=1 the last's.
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(_samples)));
    rank = std::max<uint64_t>(1, std::min(rank, _samples));
    uint64_t seen = 0;
    for (size_t i = 0; i < _bins.size(); ++i) {
        seen += _bins[i];
        if (seen >= rank)
            return static_cast<uint64_t>(i) * _binWidth;
    }
    return static_cast<uint64_t>(_bins.size() - 1) * _binWidth;
}

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    hipstr_assert(cells.size() == _headers.size());
    _rows.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<size_t> widths(_headers.size());
    for (size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        os << "|";
        for (size_t c = 0; c < row.size(); ++c)
            os << " " << std::setw(static_cast<int>(widths[c]))
               << std::left << row[c] << " |";
        os << "\n";
    };

    print_row(_headers);
    os << "|";
    for (size_t c = 0; c < _headers.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (const auto &row : _rows)
        print_row(row);
}

std::string
formatDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
formatPercent(double fraction, int digits)
{
    return formatDouble(fraction * 100.0, digits) + "%";
}

std::string
formatScientific(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", digits, v);
    return buf;
}

} // namespace hipstr
