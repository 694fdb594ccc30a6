/**
 * @file
 * Single-thread replays of the workload's own inputs through one
 * layer at a time, run after the timed phase of a traced run: the
 * MFCC front end, the model's acoustic backend at fixed batch sizes,
 * and the engine's search backend.  They give each layer's rate with
 * nothing else running, and the search's exact work counts per
 * utterance.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <vector>

#include "decoder/result.hh"
#include "frontend/audio.hh"
#include "harness.hh"
#include "pipeline/model.hh"

namespace perfbench {

struct ReplayResult
{
    double frontendSecondsPerAudioSecond = 0.0;
    /** Acoustic GMAC/s at batch sizes 1, 32 and 256. */
    double gmacsB1 = 0.0;
    double gmacsB32 = 0.0;
    double gmacsB256 = 0.0;
    double searchSecondsPerAudioSecond = 0.0;
    /** The search's counters for each pool utterance. */
    std::vector<asr::decoder::DecodeStats> searchStats;
};

/**
 * Replay @p pool through each layer of @p model on one thread, the
 * search with the engine's backend under @p search.
 */
ReplayResult replayLayers(const asr::pipeline::AsrModel &model,
                          const std::vector<asr::frontend::AudioSignal> &pool,
                          const asr::decoder::DecoderConfig &search,
                          Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
