/**
 * @file
 * Lightweight statistics package used by the simulator, the PSR virtual
 * machine, and the benchmark harnesses: histograms, and tabular text
 * output shaped like the paper's tables.
 */

#ifndef HIPSTR_SUPPORT_STATS_HH
#define HIPSTR_SUPPORT_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hipstr
{

/**
 * A histogram over integer samples with fixed-width bins. Used, e.g.,
 * for stack-slot displacement distributions and gadget-length counts.
 *
 * Overflow contract (every call site relies on this, so it is stated
 * once here): a sample at or beyond `bin_width * num_bins` is NOT
 * dropped — it is absorbed into the final bin. binCount(numBins()-1)
 * therefore reads as "this value or larger", and mean() still
 * reflects the exact sample values, not the bin midpoints.
 *
 * The thread-safe registry wrapper telemetry::HistogramMetric builds
 * on this class; merge() is its shard-combining primitive.
 */
class Histogram
{
  public:
    Histogram(std::string name, uint64_t bin_width, size_t num_bins);

    void sample(uint64_t v, uint64_t count = 1);
    void reset();

    /**
     * Fold @p other into this histogram (bin-wise addition plus the
     * sample/sum accounting mean() needs). Asserts on geometry
     * mismatch — merging differently-binned histograms silently
     * corrupts the distribution.
     */
    void merge(const Histogram &other);

    uint64_t totalSamples() const { return _samples; }
    /** Mean of all samples; 0.0 for an empty histogram (no samples
     *  recorded yet must never fault a stats dump mid-run). */
    double mean() const;
    /**
     * Lower edge of the bin containing the @p p-quantile (p in
     * [0, 1]), by cumulative-count walk. With binWidth 1 this is the
     * exact integer percentile of the recorded samples; wider bins
     * round down to the bin edge. An empty histogram answers 0 —
     * like mean(), percentile queries must stay well-defined on a
     * histogram that has no samples yet (e.g. the merge of several
     * empty shards).
     */
    uint64_t percentile(double p) const;
    /** Count in bin @p i; the final bin absorbs overflow (see the
     *  class comment). */
    uint64_t binCount(size_t i) const { return _bins.at(i); }
    uint64_t binWidth() const { return _binWidth; }
    size_t numBins() const { return _bins.size(); }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    uint64_t _binWidth;
    std::vector<uint64_t> _bins;
    uint64_t _samples = 0;
    uint64_t _sum = 0;
};

/**
 * Fixed-column text table writer used by the benchmark harnesses to
 * print paper-shaped tables (e.g., Table 2).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;
    size_t numRows() const { return _rows.size(); }

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Format a double with @p digits significant decimal places. */
std::string formatDouble(double v, int digits = 2);

/** Format a value as a percentage string, e.g. "98.04%". */
std::string formatPercent(double fraction, int digits = 2);

/** Format a large count in scientific notation, e.g. "9.11e+33". */
std::string formatScientific(double v, int digits = 2);

} // namespace hipstr

#endif // HIPSTR_SUPPORT_STATS_HH
