#include "replay.hh"

#include <algorithm>

#include "acoustic/matrix.hh"
#include "frontend/mfcc.hh"
#include "search/backend.hh"

namespace perfbench {

namespace {

/** Acoustic rate at batch size @p batch over @p rows (GMAC/s). */
double
acousticRate(const asr::acoustic::Backend &backend,
             const asr::frontend::FeatureMatrix &rows, std::size_t batch,
             Tracer &tracer, const char *span)
{
    // At least one full batch and a quarter second of scoring.
    constexpr double kMinSeconds = 0.25;
    asr::acoustic::Matrix input(batch, backend.inputDim());
    std::size_t next = 0, scored = 0;
    double seconds = 0.0;
    const Clock::time_point start = Clock::now();
    while (seconds < kMinSeconds) {
        for (std::size_t r = 0; r < batch; ++r, ++next) {
            const auto &row = rows[next % rows.size()];
            std::copy(row.begin(), row.end(), input.row(r).begin());
        }
        const Clock::time_point t0 = Clock::now();
        const asr::acoustic::Matrix out = backend.scoreBatch(input);
        seconds += secondsBetween(t0, Clock::now());
        scored += out.rows();
    }
    tracer.record(span, start, Clock::now(), 0);
    return double(scored) * double(backend.macsPerFrame()) / seconds * 1e-9;
}

} // namespace

ReplayResult
replayLayers(const asr::pipeline::AsrModel &model,
             const std::vector<asr::frontend::AudioSignal> &pool,
             const asr::decoder::DecoderConfig &search, Tracer &tracer)
{
    ReplayResult out;
    double audio = 0.0, frontend = 0.0, searchSeconds = 0.0;
    asr::frontend::FeatureMatrix spliced;

    asr::search::BackendConfig cfg;
    cfg.decoder = search;
    const auto backend =
        asr::search::createBackend("viterbi", model.net(), cfg);

    for (const asr::frontend::AudioSignal &signal : pool) {
        audio += signal.durationSeconds();
        Clock::time_point t0 = Clock::now();
        const asr::frontend::FeatureMatrix feats =
            model.mfcc().compute(signal);
        Clock::time_point t1 = Clock::now();
        tracer.record("replay.frontend", t0, t1, 0);
        frontend += secondsBetween(t0, t1);

        const auto rows =
            asr::frontend::spliceContext(feats, model.contextFrames());
        spliced.insert(spliced.end(), rows.begin(), rows.end());

        const auto scores = model.scorer().score(feats);
        t0 = Clock::now();
        const asr::decoder::DecodeResult r = backend->decode(scores);
        t1 = Clock::now();
        tracer.record("replay.search", t0, t1, 0);
        searchSeconds += secondsBetween(t0, t1);
        out.searchStats.push_back(r.stats);
    }
    out.frontendSecondsPerAudioSecond = frontend / audio;
    out.searchSecondsPerAudioSecond = searchSeconds / audio;

    const asr::acoustic::Backend &acoustic = model.backend();
    out.gmacsB1 = acousticRate(acoustic, spliced, 1, tracer,
                               "replay.acoustic.b1");
    out.gmacsB32 = acousticRate(acoustic, spliced, 32, tracer,
                                "replay.acoustic.b32");
    out.gmacsB256 = acousticRate(acoustic, spliced, 256, tracer,
                                 "replay.acoustic.b256");
    return out;
}

} // namespace perfbench
