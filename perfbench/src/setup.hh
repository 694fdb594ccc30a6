/**
 * @file
 * The three benchmark workloads' fixed parameters and their set-up:
 * graph generation, model construction, engine (and server) start,
 * and the utterance pool the load is drawn from.
 *
 * The graph, the model and the utterance pool are fixed by the
 * workload (constant seeds below); the run's --seed draws the load
 * over them: stream arrival times, which pool utterance each stream
 * or job carries, and their order.  Holding the pool fixed keeps the
 * per-run work constant, so the spread between seeds measures the
 * system, not the corpus.
 */

#ifndef PERFBENCH_SETUP_HH
#define PERFBENCH_SETUP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hh"
#include "frontend/audio.hh"
#include "net/server.hh"
#include "pipeline/model.hh"
#include "wfst/wfst.hh"

namespace perfbench {

/** Everything fixed about one workload. */
struct WorkloadSpec
{
    std::string name;

    // Graph (wfst::generateWfst).
    asr::wfst::StateId states = 0;
    std::uint32_t words = 0;
    std::uint64_t graphSeed = 0;

    // Acoustic model (pipeline::AsrModel).
    unsigned phonemes = 0;
    std::vector<std::size_t> hidden;
    unsigned trainUtterPerPhoneme = 0;
    unsigned trainEpochs = 0;
    float beam = 0.0f;
    std::uint32_t maxActive = 0;  //!< histogram-pruning cap (0 = off)

    // Engine.
    bool batchScoring = false;
    unsigned engineThreads = 0;
    std::size_t maxBatchSessions = 32;

    // Load.
    bool wire = false;         //!< open loop over net::Server
    double streamsPerSecond = 0.0;  //!< open loop: arrival rate
    unsigned inFlight = 0;     //!< closed loop: jobs kept in flight
    unsigned connections = 0;  //!< open loop: loopback connections
    unsigned minFrames = 0;    //!< utterance length range (10 ms)
    unsigned maxFrames = 0;
    unsigned poolSize = 0;     //!< distinct utterances
    std::uint64_t corpusSeed = 0;
};

/** The spec named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload. */
std::vector<std::string> workloadNames();

/** The serving stack one run drives. */
struct Stack
{
    std::unique_ptr<asr::wfst::Wfst> net;
    std::unique_ptr<asr::pipeline::AsrModel> model;
    std::unique_ptr<asr::api::Engine> engine;
    std::unique_ptr<asr::net::Server> server;  //!< wire workloads only
    std::vector<int> engineTids;  //!< threads the engine started
};

/** Build graph, model, engine (and server): the timed set-up. */
Stack buildStack(const WorkloadSpec &spec);

/** Stop the server, then the engine, then drop the model and graph. */
void tearDown(Stack &stack);

/** Engine options of the workload. */
asr::api::EngineOptions engineOptions(const WorkloadSpec &spec);

/** The workload's utterance pool (untimed; not part of set-up). */
std::vector<asr::frontend::AudioSignal>
buildPool(const WorkloadSpec &spec, const asr::pipeline::AsrModel &model);

} // namespace perfbench

#endif // PERFBENCH_SETUP_HH
