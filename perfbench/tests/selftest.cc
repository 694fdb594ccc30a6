/**
 * @file
 * Self-test of the checks perfbench's verdict rests on: the oracle
 * comparison must catch one altered result, the percentile sample
 * rule and the accounting check must fail a run, and a clean report
 * must pass.  Exits non-zero on the first broken expectation.
 */

#include <cstdio>
#include <cstdlib>

#include "harness.hh"
#include "oracle.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(double(i));
    return v;
}

} // namespace

int
main()
{
    // Oracle comparison.
    const Hypothesis oracle{{3, 7, 9}, -12.5f};
    Agreement same;
    for (int i = 0; i < 50; ++i)
        same.add(oracle, oracle);
    expect(same.allWordsEqual() && same.wordAgreement() == 1.0 &&
               same.exactShare() == 1.0,
           "identical results agree exactly");

    Agreement altered;
    for (int i = 0; i < 49; ++i)
        altered.add(oracle, oracle);
    altered.add(oracle, Hypothesis{{3, 8, 9}, -12.5f});
    expect(!altered.allWordsEqual(), "one altered word is caught");
    expect(altered.wordAgreement() < 1.0, "word_agreement drops below 1");
    expect(altered.exactShare() < 1.0, "exact_share drops below 1");

    Agreement scoreOnly;
    scoreOnly.add(oracle, Hypothesis{{3, 7, 9}, -12.25f});
    expect(scoreOnly.allWordsEqual() && scoreOnly.exactShare() == 0.0,
           "a score-only difference keeps words but is not exact");

    // Percentiles and the ten-samples-beyond rule.
    expect(percentile(ramp(100), 0.50) == 50.0, "p50 of 1..100 is 50");
    expect(percentile(ramp(100), 0.90) == 90.0, "p90 of 1..100 is 90");
    expect(samplesBeyond(100, 0.90) == 10, "p90 of 100 has 10 beyond");
    expect(samplesBeyond(99, 0.90) == 9, "p90 of 99 has 9 beyond");

    Report thin;
    thin.percentileMetric("lat_p90", ramp(99), 0.90, "ms");
    expect(!thin.harnessOk(), "a p90 over 99 samples fails the run");

    Report idle;
    idle.percentileMetric("idle_p50", {}, 0.50, "ms", true);
    expect(idle.harnessOk(), "an idle layer's empty percentile passes");

    // Accounting.
    Report leak;
    leak.setAccounting(10, 8, 1);
    expect(!leak.harnessOk(), "attempted != completed + failed fails");

    Report clean;
    clean.setAccounting(10, 9, 1);
    clean.percentileMetric("lat_p50", ramp(20), 0.50, "ms");
    clean.setOutputsCorrect(true);
    expect(clean.correct(), "a consistent report is correct");
    clean.setOutputsCorrect(false);
    expect(!clean.correct(), "an oracle mismatch makes it incorrect");

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST PASSED");
    return failures ? 1 : 0;
}
