#include "oracle.hh"

#include <atomic>
#include <cstring>
#include <thread>

#include "acoustic/backend.hh"
#include "acoustic/scorer.hh"
#include "decoder/wer.hh"
#include "search/backend.hh"

namespace perfbench {

std::vector<Hypothesis>
oracleDecode(const asr::pipeline::AsrModel &model,
             const std::vector<asr::frontend::AudioSignal> &pool,
             const asr::decoder::DecoderConfig &search, unsigned threads)
{
    const auto reference = asr::acoustic::Backend::create(
        asr::acoustic::BackendKind::Reference, model.dnn());
    const asr::acoustic::DnnScorer scorer(*reference,
                                          model.contextFrames());
    asr::search::BackendConfig cfg;
    cfg.decoder = search;

    std::vector<Hypothesis> out(pool.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        const auto baseline =
            asr::search::createBackend("baseline", model.net(), cfg);
        for (std::size_t i = next++; i < pool.size(); i = next++) {
            const auto scores = scorer.score(model.mfcc().compute(pool[i]));
            const auto result = baseline->decode(scores);
            out[i] = Hypothesis{result.words, result.score};
        }
    };
    std::vector<std::thread> pool_threads;
    for (unsigned t = 1; t < threads; ++t)
        pool_threads.emplace_back(work);
    work();
    for (std::thread &t : pool_threads)
        t.join();
    return out;
}

void
Agreement::add(const Hypothesis &oracle, const Hypothesis &served)
{
    ++results_;
    const auto wer = asr::decoder::scoreWer(oracle.words, served.words);
    edits += wer.errors();
    oracleWords += oracle.words.size();
    const bool same_words = oracle.words == served.words;
    wordsEqual += same_words ? 1 : 0;
    exact += same_words && std::memcmp(&oracle.score, &served.score,
                                       sizeof(served.score)) == 0
                 ? 1
                 : 0;
}

double
Agreement::wordAgreement() const
{
    if (oracleWords == 0)
        return edits == 0 ? 1.0 : 0.0;
    return 1.0 - double(edits) / double(oracleWords);
}

double
Agreement::exactShare() const
{
    return results_ ? double(exact) / double(results_) : 0.0;
}

} // namespace perfbench
