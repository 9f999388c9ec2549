/**
 * @file
 * Tests of the benchmark's own bookkeeping: self time over nested and
 * overlapping spans, the percentile rule, and operation accounting.
 * Exits non-zero on the first failed expectation.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hh"

using namespace perfbench;

namespace
{

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what.c_str());
        ++g_failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

Span
span(uint64_t id, uint64_t parent, const char *name, double s, double e,
     uint32_t run = 1)
{
    return Span{ id, parent, run, name, s, e };
}

void
testSelfTimeNested()
{
    // root [0,10] > a [1,4] > leaf [2,3]; root > b [5,6]
    const std::vector<Span> spans = {
        span(1, 0, "bench.pass", 0, 10),
        span(2, 1, "isa.interp", 1, 4),
        span(3, 2, "binary.load", 2, 3),
        span(4, 1, "sim.vm_timed", 5, 6),
    };
    const std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 10 - 3 - 1), "root self excludes its children");
    expect(near(self[1], 3 - 1), "child self excludes the grandchild");
    expect(near(self[2], 1), "leaf self is its duration");
    expect(near(self[3], 1), "second child self");

    auto byLayer = selfTimeByLayer(spans);
    expect(near(byLayer["bench"], 6) && near(byLayer["isa"], 2) &&
               near(byLayer["binary"], 1) && near(byLayer["sim"], 1),
           "self time grouped by layer");
    double sum = 0;
    for (double s : self)
        sum += s;
    expect(near(sum, 10), "self times of a sequential tree sum to the root");
}

void
testSelfTimeOverlapAndRuns()
{
    // Parallel children [1,5] and [3,7] cover [1,7] once; a child that
    // outlives its parent is clipped to it.
    const std::vector<Span> spans = {
        span(1, 0, "bench.pass", 0, 8),
        span(2, 1, "bench.cell", 1, 5),
        span(3, 1, "bench.cell", 3, 7),
        span(4, 0, "fleet.run", 0, 2, 2),
        span(5, 4, "server.step", 1, 3, 2),
    };
    const std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 8 - 6), "overlapping children counted once");
    expect(near(self[3], 1), "child clipped to the parent interval");

    auto run1 = selfTimeByLayer(spans, { 1 });
    expect(near(run1["bench"], 2 + 4 + 4) && run1.count("fleet") == 0,
           "self time restricted to the selected runs");
    expect(near(totalDuration(spans, "bench.cell", { 1 }), 8),
           "total duration by name");
    expect(spanCount(spans, "bench.cell") == 2, "span count by name");
}

void
testTracerNesting()
{
    Tracer t;
    t.setRun(3);
    uint64_t outer = 0;
    {
        ScopedSpan a(&t, "bench.pass");
        outer = a.id();
        ScopedSpan b(&t, "isa.interp");
        std::thread th([&] { ScopedSpan c(&t, "sim.vm_timed", outer); });
        th.join();
    }
    const std::vector<Span> s = t.spans();
    expect(s.size() == 3, "three spans recorded");
    expect(s[1].parent == s[0].id, "implicit parent is the open span");
    expect(s[2].parent == outer, "explicit parent across threads");
    expect(s[0].run == 3 && s[2].run == 3, "spans carry the run id");
    expect(s[0].end >= s[1].end, "outer span closes last");

    ScopedSpan none(nullptr, "ignored");
    expect(none.id() == 0, "a null tracer records nothing");
}

void
testPercentileRule()
{
    std::vector<double> v;
    for (int i = 1; i <= 19; ++i)
        v.push_back(i);
    expect(!percentile(v, 0.5), "p50 of 19 samples: 9 beyond, refused");
    v.push_back(20);
    auto p50 = percentile(v, 0.5);
    expect(p50 && near(*p50, 10), "p50 of 20 samples is the 10th");

    std::vector<double> w;
    for (int i = 0; i < 999; ++i)
        w.push_back(998 - i); // 998 .. 0, unsorted input
    expect(!percentile(w, 0.99), "p99 of 999 samples refused");
    w.push_back(999);
    auto p99 = percentile(w, 0.99);
    expect(p99 && near(*p99, 989), "p99 of 1000 samples: 10 beyond it");
    expect(!percentile({}, 0.5), "empty sample refused");
    expect(near(median({ 3, 1, 2 }), 2) && near(median({ 4, 1, 3, 2 }), 2.5),
           "median odd and even");
}

void
testOpsLedger()
{
    OpsLedger ops;
    expect(!ops.correct(), "nothing attempted is not correct");
    ops.record(100, 0, "clean");
    expect(ops.correct() && ops.attempted() == 100 && ops.failed() == 0,
           "clean batch");
    ops.record(5, 9, "more failures than attempts");
    expect(ops.attempted() == 105 && ops.failed() == 5,
           "failures capped at attempts");
    expect(!ops.check(false, "replay diverged"), "check returns ok");
    expect(ops.attempted() == 106 && ops.failed() == 6 && !ops.correct(),
           "a failed check is one failed operation");
    expect(ops.failures().size() == 2, "failure messages kept");

    std::ostringstream os;
    writeResultLine(os, ops, { { "wall_s", 1.25, "s" } });
    expect(os.str() ==
               "{\"correct\": false, \"attempted\": 106, \"failed\": 6, "
               "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": "
               "\"s\"}}}\n",
           "result line format");
    expect(jsonNumber(0.1) == "0.1" && jsonNumber(1e300 * 1e300) == "0",
           "json numbers");
}

} // namespace

int
main()
{
    testSelfTimeNested();
    testSelfTimeOverlapAndRuns();
    testTracerNesting();
    testPercentileRule();
    testOpsLedger();
    if (g_failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
