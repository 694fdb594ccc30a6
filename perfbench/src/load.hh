/**
 * @file
 * The load generators.  Each runs on the benchmark's single generator
 * thread and drives the serving stack from outside for one timed
 * phase:
 *
 *  - runWire: open loop.  Streams arrive at seeded times over a few
 *    multiplexed loopback connections; each pushes one 10 ms chunk
 *    when its capture is due and polls PARTIAL after every chunk.
 *    Non-blocking sockets with per-connection output buffers, so no
 *    stream's wait can delay another stream's due push.
 *  - runClosedLoop: closed loop.  A fixed number of whole utterances
 *    stays in flight through Engine::submit(); each completion is
 *    replaced by the next until the phase's time is up.
 *
 * Both record every served result for the oracle check, the
 * latencies the end-to-end metrics come from, the generator's own
 * lateness, and the thread and connection counts the self-checks
 * bound.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <vector>

#include "decoder/result.hh"
#include "harness.hh"
#include "net/protocol.hh"
#include "oracle.hh"
#include "server/engine_stats.hh"
#include "setup.hh"

namespace perfbench {

/** One utterance the system answered (in time or late). */
struct Served
{
    std::size_t utt = 0;      //!< pool index
    Hypothesis hyp;           //!< what the system returned
    bool ok = false;          //!< completed in time, no error
    /**
     * Completed inside the measured window.  A closed loop stops
     * submitting when the phase's time is up; the jobs still in
     * flight then drain at falling concurrency, so they are checked
     * against the oracle but left out of latency and throughput.
     */
    bool inWindow = true;
    double firstWordsMs = -1; //!< first chunk due -> first words seen
    double finalMs = -1;      //!< end of speech -> final result
    /** Search counters (closed loop: from the RecognitionResult). */
    asr::decoder::DecodeStats searchStats;
};

/** What one timed phase produced. */
struct PhaseResult
{
    std::vector<Served> served;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    double wallSeconds = 0.0;   //!< phase start -> last completion in window
    double audioSeconds = 0.0;  //!< audio completed in the window
    double phaseSeconds = 0.0;  //!< the interval engine CPU is read over

    std::vector<double> lateMs;       //!< generator lateness samples
    std::vector<double> openRttMs;    //!< OPEN -> ack
    std::vector<double> partialRttMs; //!< PARTIAL poll -> reply
    std::vector<double> sendBlockMs;  //!< frame queued -> written
    std::uint64_t framesSent = 0;
    std::uint64_t framesReceived = 0;

    unsigned maxThreads = 0;      //!< most threads seen while timed
    unsigned connections = 0;     //!< client connections opened
    double engineCpuSeconds = 0.0;//!< engine threads' CPU in the phase

    /** Engine counters at the phase's start and end. */
    asr::server::EngineSnapshot statsBefore, statsAfter;
    /** The server's STATS reply after the phase (wire only). */
    asr::net::StatsReply wireStats;
    bool haveWireStats = false;
};

/** Open-loop wire phase. */
PhaseResult runWire(const WorkloadSpec &spec, Stack &stack,
                    const std::vector<asr::frontend::AudioSignal> &pool,
                    std::uint64_t seed, double seconds, Tracer &tracer);

/** Closed-loop submit() phase. */
PhaseResult
runClosedLoop(const WorkloadSpec &spec, Stack &stack,
              const std::vector<asr::frontend::AudioSignal> &pool,
              std::uint64_t seed, double seconds, Tracer &tracer);

/**
 * Pool indices for @p count streams or jobs: the pool in seeded
 * shuffled rounds, so every utterance is used about equally often.
 */
std::vector<std::size_t> assignUtterances(std::size_t count,
                                          std::size_t pool,
                                          std::uint64_t seed);

/** Sum of the engine threads' CPU seconds. */
double cpuSeconds(const std::vector<int> &tids);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH
