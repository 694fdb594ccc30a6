#include "setup.hh"

#include <algorithm>

#include "common/rng.hh"
#include "harness.hh"
#include "pipeline/corpus.hh"
#include "wfst/generate.hh"

namespace perfbench {

namespace {

/**
 * The DNN-heavy model shared by live_wire and batch_dnn: a small
 * graph and a 2 x 1600 hidden-layer DNN (~2.7 M MACs per frame) whose
 * weights do not fit in L2, so batching frames into large GEMMs is
 * what pays.  Training is minimal: the oracle, not ground truth,
 * judges the outputs.
 */
WorkloadSpec
dnnHeavy(const std::string &name)
{
    WorkloadSpec s;
    s.name = name;
    s.states = 4000;
    s.words = 200;
    s.graphSeed = 2016;
    s.phonemes = 16;
    s.hidden = {1600, 1600};
    s.trainUtterPerPhoneme = 4;
    s.trainEpochs = 2;
    s.beam = 12.0f;
    s.corpusSeed = 4242;
    return s;
}

std::vector<WorkloadSpec>
allWorkloads()
{
    // live_wire: open loop over 4 loopback connections; a batched
    // engine on 2 threads behind net::Server.
    WorkloadSpec live = dnnHeavy("live_wire");
    live.batchScoring = true;
    live.engineThreads = 2;
    live.maxBatchSessions = 32;
    live.wire = true;
    // api.busy_share ~0.35; from ~0.45 up the batched engine's tail
    // latency turns bimodal between seeds.  4 x 25 s = 100 streams,
    // enough for a p90.
    live.streamsPerSecond = 4.0;
    live.connections = 4;
    live.minFrames = 100;
    live.maxFrames = 300;
    live.poolSize = 24;

    // batch_dnn: closed loop, 32 jobs of 3 s through submit() on a
    // batched engine with 3 threads -- large GEMM batches dominate.
    WorkloadSpec dnn = dnnHeavy("batch_dnn");
    dnn.batchScoring = true;
    dnn.engineThreads = 3;
    dnn.maxBatchSessions = 32;
    dnn.inFlight = 32;
    dnn.minFrames = 300;
    dnn.maxFrames = 300;
    dnn.poolSize = 32;

    // batch_search: closed loop, 6 jobs of 3 s on a per-session engine
    // (3 threads) over an 8 M-state graph (~330 MB of arcs, several
    // times L3) with a tiny DNN -- Viterbi search dominates.
    WorkloadSpec search;
    search.name = "batch_search";
    search.states = 8'000'000;
    search.words = 125000;
    search.graphSeed = 2016;
    search.phonemes = 64;
    search.hidden = {64, 64};
    search.trainUtterPerPhoneme = 6;
    search.trainEpochs = 6;
    search.beam = 18.0f;
    // Kaldi-style max-active cap: bounds the tokens per frame so a
    // run completes enough utterances for its percentiles.
    search.maxActive = 2000;
    search.batchScoring = false;
    search.engineThreads = 3;
    search.inFlight = 6;
    search.minFrames = 300;
    search.maxFrames = 300;
    search.poolSize = 24;
    search.corpusSeed = 4243;

    return {live, dnn, search};
}

/** Threads present now but not in @p before. */
std::vector<int>
newThreads(const std::vector<int> &before)
{
    std::vector<int> out;
    for (const int tid : threadIds())
        if (!std::binary_search(before.begin(), before.end(), tid))
            out.push_back(tid);
    return out;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    static const std::vector<WorkloadSpec> all = allWorkloads();
    for (const WorkloadSpec &s : all)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &s : allWorkloads())
        names.push_back(s.name);
    return names;
}

asr::api::EngineOptions
engineOptions(const WorkloadSpec &spec)
{
    asr::api::EngineOptions opts;
    opts.searchBackend = "viterbi";
    opts.numThreads = spec.engineThreads;
    opts.batchScoring = spec.batchScoring;
    opts.maxBatchSessions = spec.maxBatchSessions;
    opts.maxActive = spec.maxActive;
    return opts;
}

Stack
buildStack(const WorkloadSpec &spec)
{
    Stack stack;
    asr::wfst::GeneratorConfig gcfg =
        asr::wfst::kaldiLikeConfig(spec.states, spec.graphSeed);
    gcfg.numPhonemes = spec.phonemes;
    gcfg.numWords = spec.words;
    stack.net =
        std::make_unique<asr::wfst::Wfst>(asr::wfst::generateWfst(gcfg));

    asr::pipeline::AsrSystemConfig mcfg;
    mcfg.numPhonemes = spec.phonemes;
    mcfg.hiddenLayers = spec.hidden;
    mcfg.trainUtterPerPhoneme = spec.trainUtterPerPhoneme;
    mcfg.trainEpochs = spec.trainEpochs;
    mcfg.beam = spec.beam;
    mcfg.useAccelerator = false;
    stack.model =
        std::make_unique<asr::pipeline::AsrModel>(*stack.net, mcfg);

    const std::vector<int> before = threadIds();
    stack.engine = std::make_unique<asr::api::Engine>(*stack.model,
                                                      engineOptions(spec));
    stack.engineTids = newThreads(before);

    if (spec.wire) {
        asr::net::ServerOptions sopts;
        sopts.bindAddress = "127.0.0.1";
        sopts.port = 0;
        // Reject-only overload policy: a degraded admission would
        // shrink the beam and serve a different result than the
        // oracle's; shedding shows up as failures instead.
        sopts.overload.enableDegraded = false;
        stack.server =
            std::make_unique<asr::net::Server>(*stack.engine, sopts);
    }
    return stack;
}

void
tearDown(Stack &stack)
{
    stack.server.reset();
    stack.engine.reset();
    stack.model.reset();
    stack.net.reset();
}

std::vector<asr::frontend::AudioSignal>
buildPool(const WorkloadSpec &spec, const asr::pipeline::AsrModel &model)
{
    std::vector<asr::frontend::AudioSignal> pool;
    pool.reserve(spec.poolSize);
    for (unsigned k = 0; k < spec.poolSize; ++k) {
        // Lengths evenly spaced over [minFrames, maxFrames].
        const unsigned span = spec.maxFrames - spec.minFrames;
        asr::pipeline::CorpusConfig ccfg;
        ccfg.framesPerUtterance =
            spec.minFrames +
            (spec.poolSize > 1 ? span * k / (spec.poolSize - 1) : 0);
        ccfg.seed = asr::deriveSeed(spec.corpusSeed, k);
        const auto utts = asr::pipeline::sampleCorpus(model.net(), ccfg, 1);
        pool.push_back(
            model.synthesizer().synthesizeFrames(utts.front().framePhonemes));
    }
    return pool;
}

} // namespace perfbench
