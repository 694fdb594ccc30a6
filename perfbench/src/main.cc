/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <live_wire|batch_dnn|batch_search>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <path>] [--alter-result]
 *
 * One process sets the serving stack up (timed, several times; the
 * median is setup_s), draws its load from the seed, drives the stack
 * from the single generator thread for --seconds, checks every
 * result against the oracle decode, and prints each metric by name
 * and unit.  The last stdout line is the JSON result: end-to-end
 * metrics with --trace 0; per-layer metrics with --trace 1, which
 * also writes a Chrome trace-event file and reports the tracing
 * overhead against an untraced phase run in the same process.
 *
 * --alter-result deliberately changes one served result before the
 * oracle comparison; the run must then report correct = false.
 *
 * Exit status: 0 when the outputs match the oracle and every harness
 * self-check holds, 1 when not (the result line still prints), 2 on
 * bad arguments or a non-Release build (nothing is timed).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "load.hh"
#include "harness.hh"
#include "oracle.hh"
#include "replay.hh"
#include "setup.hh"

using namespace perfbench;

namespace {

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Most loopback connections a run may open. */
constexpr unsigned kMaxConnections = 4;
/**
 * Bound on the generator's p99 lateness (ms): one 10 ms chunk period.
 * A generator later than that has fallen a whole chunk behind its
 * schedule and measures itself, not the system.
 */
constexpr double kLateBoundMs = 10.0;

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "first_partial_p50_ms", "first_partial_p90_ms",
    "xrt",           "success_share",        "word_agreement",
    "peak_rss_mb",
};

// final_p50_ms and final_p90_ms are end-to-end figures, reported with
// the per-layer metrics because they carry no bound: on live_wire they
// are a few milliseconds and moved by more than any allowed bound
// between runs of the same code on a shared 4-CPU host.  (On the
// closed-loop workloads first_partial_* equals them.)
const std::vector<std::string> kPerLayer = {
    "final_p50_ms",
    "final_p90_ms",
    "net.open_rtt_ms_p50",
    "net.partial_rtt_ms_p50",
    "net.partial_rtt_ms_p99",
    "net.send_block_ms_p99",
    "net.frames_per_s",
    "net.retry_after",
    "net.errors",
    "api.busy_share",
    "api.first_partial_ms_p50",
    "api.latency_ms_p50",
    "api.utt_ms_p50",
    "api.utt_ms_p90",
    "api.exact_share",
    "frontend.s_per_audio_s",
    "frontend.replay_s_per_audio_s",
    "acoustic.s_per_audio_s",
    "acoustic.batch_rows_mean",
    "acoustic.gmacs",
    "acoustic.replay_gmacs_b1",
    "acoustic.replay_gmacs_b32",
    "acoustic.replay_gmacs_b256",
    "search.s_per_audio_s",
    "search.ns_per_arc",
    "search.tokens_per_frame",
    "search.arcs_per_frame",
    "search.graph_bytes_per_frame",
    "search.useful_share",
    "search.arena_peak_entries",
    "search.replay_s_per_audio_s",
    "gen.late_ms_p99",
    "gen.threads",
    "gen.connections",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    bool alterResult = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--alter-result]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--alter-result") {
            a.alterResult = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

PhaseResult
runPhase(const WorkloadSpec &spec, Stack &stack,
         const std::vector<asr::frontend::AudioSignal> &pool,
         const Args &args, Tracer &tracer)
{
    return spec.wire
               ? runWire(spec, stack, pool, args.seed, args.seconds, tracer)
               : runClosedLoop(spec, stack, pool, args.seed, args.seconds,
                               tracer);
}

/** The end-to-end metrics of one phase, and its self-checks. */
void
endToEnd(Report &rep, const PhaseResult &phase, double setup_s,
         double peak_rss_mb, const Agreement &agreement)
{
    std::vector<double> first, final;
    for (const Served &s : phase.served) {
        if (!s.ok || !s.inWindow)
            continue;
        if (s.firstWordsMs >= 0.0)
            first.push_back(s.firstWordsMs);
        final.push_back(s.finalMs);
    }
    rep.metric("setup_s", setup_s, "s");
    rep.percentileMetric("first_partial_p50_ms", first, 0.50, "ms");
    rep.percentileMetric("first_partial_p90_ms", first, 0.90, "ms");
    rep.percentileMetric("final_p50_ms", final, 0.50, "ms");
    rep.percentileMetric("final_p90_ms", final, 0.90, "ms");
    rep.metric("xrt",
               phase.wallSeconds > 0 ? phase.audioSeconds / phase.wallSeconds
                                     : 0.0,
               "x");
    rep.metric("success_share",
               double(phase.completed) / double(std::max<std::uint64_t>(
                                             1, phase.attempted)),
               "share");
    rep.metric("word_agreement", agreement.wordAgreement(), "share");
    rep.metric("peak_rss_mb", peak_rss_mb, "MB");

    // Harness self-checks: the generator must not be the bottleneck.
    const unsigned cpus = availableCpus();
    rep.check(phase.maxThreads <= cpus,
              "threads: " + std::to_string(phase.maxThreads) +
                  " ran during the timed phase on " + std::to_string(cpus) +
                  " CPUs");
    rep.check(phase.connections <= kMaxConnections,
              "connections: " + std::to_string(phase.connections) +
                  " > " + std::to_string(kMaxConnections));
    rep.sampleCount("gen.late", phase.lateMs.size());
    const double late = percentile(phase.lateMs, 0.99);
    rep.check(samplesBeyond(phase.lateMs.size(), 0.99) >= kMinSamplesBeyond,
              "gen.late_ms_p99: too few samples");
    rep.check(late <= kLateBoundMs,
              "generator saturated: gen.late_ms_p99 = " +
                  std::to_string(late) + " ms > " +
                  std::to_string(kLateBoundMs) + " ms");
    rep.setAccounting(phase.attempted, phase.completed, phase.failed);
}

/** Engine counter deltas over one phase. */
struct EngineDelta
{
    double audio, search, dnn, frontend, dnnBatch;
    std::uint64_t batches, batchedFrames, frames;
};

EngineDelta
engineDelta(const PhaseResult &p)
{
    const auto &a = p.statsBefore, &b = p.statsAfter;
    EngineDelta d{};
    d.audio = b.audioSeconds - a.audioSeconds;
    d.search = b.searchSeconds - a.searchSeconds;
    d.dnn = b.dnnSeconds - a.dnnSeconds;
    d.frontend = (b.decodeSeconds - a.decodeSeconds) - d.search - d.dnn;
    d.dnnBatch = b.dnnBatchSeconds - a.dnnBatchSeconds;
    d.batches = b.dnnBatches - a.dnnBatches;
    d.batchedFrames = b.dnnBatchedFrames - a.dnnBatchedFrames;
    d.frames = b.framesDecoded - a.framesDecoded;
    return d;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer metrics of the traced phase. */
void
perLayer(Report &rep, const WorkloadSpec &spec, const Stack &stack,
         const PhaseResult &phase, const Tracer &tracer,
         const ReplayResult &replay, const Agreement &agreement,
         std::uint64_t server_errors)
{
    // net: from the generator's spans around its wire calls.
    const bool wire = spec.wire;
    rep.percentileMetric("net.open_rtt_ms_p50", tracer.durationsMs("open"),
                         0.50, "ms", !wire);
    const std::vector<double> partial = tracer.durationsMs("partial");
    rep.percentileMetric("net.partial_rtt_ms_p50", partial, 0.50, "ms",
                         !wire);
    rep.percentileMetric("net.partial_rtt_ms_p99", partial, 0.99, "ms",
                         !wire);
    rep.percentileMetric("net.send_block_ms_p99", tracer.durationsMs("push"),
                         0.99, "ms", !wire);
    rep.metric("net.frames_per_s",
               ratio(double(phase.framesSent + phase.framesReceived),
                     phase.phaseSeconds),
               "1/s");
    rep.metric("net.retry_after", double(phase.wireStats.retryAfterSent),
               "count");
    rep.metric("net.errors", double(server_errors), "count");
    rep.check(!wire || phase.haveWireStats, "net: no STATS reply");

    // api: engine threads' CPU, the engine's own latency figures, and
    // the generator's submit -> ready spans.
    rep.metric("api.busy_share",
               ratio(phase.engineCpuSeconds,
                     phase.phaseSeconds * spec.engineThreads),
               "share");
    rep.metric("api.first_partial_ms_p50",
               wire ? phase.wireStats.firstPartialP50Ms : 0.0, "ms");
    rep.metric("api.latency_ms_p50",
               wire ? phase.wireStats.latencyP50Ms
                    : phase.statsAfter.latencyP50Ms,
               "ms");
    const std::vector<double> utt = tracer.durationsMs("submit->ready");
    rep.percentileMetric("api.utt_ms_p50", utt, 0.50, "ms", wire);
    rep.percentileMetric("api.utt_ms_p90", utt, 0.90, "ms", wire);
    rep.metric("api.exact_share", agreement.exactShare(), "share");

    // frontend / acoustic / search: engine counters over the phase.
    const EngineDelta d = engineDelta(phase);
    rep.metric("frontend.s_per_audio_s", ratio(d.frontend, d.audio), "s/s");
    rep.metric("frontend.replay_s_per_audio_s",
               replay.frontendSecondsPerAudioSecond, "s/s");
    const double dnnSeconds = spec.batchScoring ? d.dnnBatch : d.dnn;
    const double scoredFrames =
        spec.batchScoring ? double(d.batchedFrames) : double(d.frames);
    rep.metric("acoustic.s_per_audio_s", ratio(dnnSeconds, d.audio), "s/s");
    rep.metric("acoustic.batch_rows_mean",
               spec.batchScoring ? ratio(double(d.batchedFrames),
                                         double(d.batches))
                                 : 1.0,
               "rows");
    rep.metric("acoustic.gmacs",
               ratio(scoredFrames *
                         double(stack.model->backend().macsPerFrame()),
                     dnnSeconds) *
                   1e-9,
               "GMAC/s");
    rep.metric("acoustic.replay_gmacs_b1", replay.gmacsB1, "GMAC/s");
    rep.metric("acoustic.replay_gmacs_b32", replay.gmacsB32, "GMAC/s");
    rep.metric("acoustic.replay_gmacs_b256", replay.gmacsB256, "GMAC/s");

    // Exact search counts: the results' own (closed loop) or the
    // replay's per-utterance counts (wire results carry none).
    asr::decoder::DecodeStats sum;
    for (const Served &s : phase.served) {
        const asr::decoder::DecodeStats &st =
            wire ? replay.searchStats[s.utt] : s.searchStats;
        sum.framesDecoded += st.framesDecoded;
        sum.tokensExpanded += st.tokensExpanded;
        sum.tokensPruned += st.tokensPruned;
        sum.arcsExpanded += st.arcsExpanded;
        sum.epsArcsExpanded += st.epsArcsExpanded;
        sum.graphBytesTouched += st.graphBytesTouched;
    }
    const double arcs = double(sum.arcsExpanded + sum.epsArcsExpanded);
    rep.metric("search.s_per_audio_s", ratio(d.search, d.audio), "s/s");
    rep.metric("search.ns_per_arc", ratio(d.search * 1e9, arcs), "ns");
    rep.metric("search.tokens_per_frame", sum.tokensPerFrame(), "tokens");
    rep.metric("search.arcs_per_frame", sum.arcsPerFrame(), "arcs");
    rep.metric("search.graph_bytes_per_frame", sum.bytesPerFrame(),
               "B/frame");
    rep.metric("search.useful_share",
               ratio(double(sum.tokensExpanded),
                     double(sum.tokensExpanded + sum.tokensPruned)),
               "share");
    rep.metric("search.arena_peak_entries",
               double(phase.statsAfter.arenaPeakEntries), "entries");
    rep.metric("search.replay_s_per_audio_s",
               replay.searchSecondsPerAudioSecond, "s/s");

    rep.metric("gen.late_ms_p99", percentile(phase.lateMs, 0.99), "ms");
    rep.metric("gen.threads", double(phase.maxThreads), "count");
    rep.metric("gen.connections", double(phase.connections), "count");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (!spec) {
        std::string names;
        for (const std::string &n : workloadNames())
            names += " " + n;
        usage(("unknown workload; known:" + names).c_str());
    }
    if (buildType() != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     buildType().c_str());
        return 2;
    }
    std::printf("fingerprint: %s\n", fingerprintJson().c_str());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                spec->name.c_str(), (unsigned long long)args.seed,
                args.seconds, int(args.trace));
    std::fflush(stdout);

    // Set-up, timed kSetupReps times; the last stack serves the run.
    std::vector<double> setupTimes;
    Stack stack;
    for (int r = 0; r < kSetupReps; ++r) {
        tearDown(stack);
        const Clock::time_point t0 = Clock::now();
        stack = buildStack(*spec);
        setupTimes.push_back(secondsBetween(t0, Clock::now()));
    }
    const std::vector<asr::frontend::AudioSignal> pool =
        buildPool(*spec, *stack.model);

    // The timed phase.  A traced run traces it, then repeats it
    // untraced to measure the tracing overhead.
    Tracer tracer(args.trace);
    Tracer untraced(false);
    PhaseResult phase = runPhase(*spec, stack, pool, args, tracer);
    PhaseResult overheadPhase;
    if (args.trace)
        overheadPhase = runPhase(*spec, stack, pool, args, untraced);
    const double peakRss = peakRssMb();
    const std::uint64_t serverErrors =
        stack.server ? stack.server->counters().errorsSent : 0;

    asr::decoder::DecoderConfig search;
    search.beam = spec->beam;
    search.maxActive = spec->maxActive;
    ReplayResult replay;
    if (args.trace)
        replay = replayLayers(*stack.model, pool, search, tracer);
    stack.server.reset();
    stack.engine.reset();

    // The oracle, untimed, on every distinct utterance.
    const std::vector<Hypothesis> oracle =
        oracleDecode(*stack.model, pool, search, availableCpus());
    const auto agree = [&](PhaseResult &p) {
        if (args.alterResult && !p.served.empty()) {
            auto &words = p.served.front().hyp.words;
            if (words.empty())
                words.push_back(1);
            else
                words.front() += 1;
        }
        Agreement a;
        for (const Served &s : p.served)
            a.add(oracle[s.utt], s.hyp);
        return a;
    };
    const Agreement agreement = agree(phase);

    Report rep;
    const double setup_s = percentile(setupTimes, 0.5);
    endToEnd(rep, phase, setup_s, peakRss, agreement);
    rep.setOutputsCorrect(agreement.allWordsEqual());
    rep.sampleCount("setup_reps", setupTimes.size());
    rep.sampleCount("distinct_utterances", pool.size());
    rep.sampleCount("results_checked", agreement.results());

    if (args.trace) {
        // Tracing overhead: the traced phase's end-to-end figures
        // against the untraced repeat's.
        const Agreement plain = agree(overheadPhase);
        Report untracedRep;
        endToEnd(untracedRep, overheadPhase, setup_s, peakRss, plain);
        std::string line = "tracing overhead (traced vs untraced):";
        for (const std::string &name : kEndToEnd) {
            const double t = rep.value(name), u = untracedRep.value(name);
            char buf[160];
            std::snprintf(buf, sizeof(buf), " %s %.6g/%.6g (%+.1f%%)",
                          name.c_str(), t, u,
                          u != 0.0 ? (t / u - 1.0) * 100.0 : 0.0);
            line += buf;
        }
        std::printf("%s\n", line.c_str());
        rep.check(untracedRep.harnessOk(), "untraced repeat failed a check");
        rep.check(plain.allWordsEqual(),
                  "untraced repeat differs from oracle");

        perLayer(rep, *spec, stack, phase, tracer, replay, agreement,
                 serverErrors);
        const std::string path =
            args.traceOut.empty()
                ? ".bench_build/trace/" + spec->name + "-seed" +
                      std::to_string(args.seed) + ".json"
                : args.traceOut;
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        const bool written = tracer.writeChromeTrace(
            path, {{"workload", spec->name},
                   {"seed", std::to_string(args.seed)},
                   {"fingerprint", fingerprintJson()},
                   {"overhead", line}});
        rep.check(written, "could not write trace file " + path);
        std::printf("trace: %s (%zu spans)\n", path.c_str(),
                    tracer.spans().size());
    }

    const std::vector<std::string> &keep = args.trace ? kPerLayer : kEndToEnd;
    for (const std::string &name : keep)
        rep.check(rep.metrics().count(name) == 1,
                  "metric not measured: " + name);
    rep.print(keep);
    return rep.correct() ? 0 : 1;
}
