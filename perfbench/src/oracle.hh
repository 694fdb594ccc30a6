/**
 * @file
 * The correctness oracle: every utterance the benchmark sends is
 * decoded again, after the timed phase, by the slow trusted path --
 * the `reference` acoustic backend and the `baseline` search backend
 * over whole-utterance MFCC -- and every served result is compared
 * with it word by word (decoder::scoreWer) and bit for bit.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <vector>

#include "decoder/result.hh"
#include "frontend/audio.hh"
#include "pipeline/model.hh"
#include "wfst/types.hh"

namespace perfbench {

/** One decode outcome: the words and the path score. */
struct Hypothesis
{
    std::vector<asr::wfst::WordId> words;
    asr::wfst::LogProb score = asr::wfst::kLogZero;
};

/**
 * Oracle-decode each signal of @p pool with the model's DNN through
 * the reference backend and the baseline search under @p search's
 * beam and max-active cap, on @p threads threads.
 */
std::vector<Hypothesis>
oracleDecode(const asr::pipeline::AsrModel &model,
             const std::vector<asr::frontend::AudioSignal> &pool,
             const asr::decoder::DecoderConfig &search, unsigned threads);

/** Running comparison of served results against their oracle. */
class Agreement
{
  public:
    /** Compare one served result with its utterance's oracle. */
    void add(const Hypothesis &oracle, const Hypothesis &served);

    std::uint64_t results() const { return results_; }

    /** 1 - word edits / oracle words (1 when nothing was compared). */
    double wordAgreement() const;

    /** Share of results whose words and score equal the oracle's. */
    double exactShare() const;

    /** True when every result's words equal its oracle's. */
    bool allWordsEqual() const { return wordsEqual == results_; }

  private:
    std::uint64_t results_ = 0;
    std::uint64_t exact = 0;
    std::uint64_t wordsEqual = 0;
    std::uint64_t edits = 0;
    std::uint64_t oracleWords = 0;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
